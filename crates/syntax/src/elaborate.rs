//! Elaboration of a parsed [`Program`] into a [`Design`].
//!
//! Elaboration performs the rewriting described in Sections 2 and 3.3 of the
//! paper:
//!
//! * concurrent signal assignments become processes sensitive to the free
//!   signals of their right-hand side;
//! * blocks are flattened, their locally declared signals added to the scope
//!   of the processes declared inside them;
//! * default `wait` sensitivity lists are pruned to signals;
//! * every elementary block receives a [`Label`] that is unique across the
//!   whole program (the labelling scheme of Section 4).
//!
//! The elaborated [`Design`] is the input to the simulator
//! (`vhdl1-sim`), the Reaching Definitions analyses (`vhdl1-dataflow`)
//! and the Information Flow analysis (`vhdl1-infoflow`).

use crate::ast::*;
use crate::error::SyntaxError;
use std::collections::{BTreeMap, BTreeSet};

/// How a signal is connected to the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// Declared `in` in the entity: the environment drives it.
    PortIn,
    /// Declared `out` in the entity: the environment observes it.
    PortOut,
    /// Declared inside the architecture, a block or a process.
    Internal,
}

/// A signal of the elaborated design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalInfo {
    /// Signal name.
    pub name: Ident,
    /// Connection to the environment.
    pub kind: SignalKind,
    /// Carried type.
    pub ty: Type,
    /// Optional initial value (internal signals only).
    pub init: Option<Expr>,
}

/// A local variable of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariableInfo {
    /// Variable name.
    pub name: Ident,
    /// Declared type.
    pub ty: Type,
    /// Optional initial value.
    pub init: Option<Expr>,
}

/// A process of the elaborated design with a labelled body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabProcess {
    /// Process identifier `i_p` (synthesised for concurrent assignments).
    pub name: Ident,
    /// Index of the process in [`Design::processes`].
    pub index: usize,
    /// Local variables of the process.
    pub variables: Vec<VariableInfo>,
    /// The labelled sequential body.
    pub body: Stmt,
}

/// An elaborated VHDL1 design: one architecture with its entity interface,
/// flattened into a set of processes sharing a global signal namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Design {
    /// Architecture name.
    pub name: Ident,
    /// Entity name.
    pub entity: Ident,
    /// All signals of the design (ports first, then internal signals).
    pub signals: Vec<SignalInfo>,
    /// The processes of the design.
    pub processes: Vec<ElabProcess>,
}

impl Design {
    /// Looks up a signal by name.
    pub fn signal(&self, name: &str) -> Option<&SignalInfo> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// Whether `name` denotes a signal of the design.
    pub fn is_signal(&self, name: &str) -> bool {
        self.signal(name).is_some()
    }

    /// Returns the names of all signals declared `in` in the entity.
    pub fn input_signals(&self) -> Vec<Ident> {
        self.signals
            .iter()
            .filter(|s| s.kind == SignalKind::PortIn)
            .map(|s| s.name.clone())
            .collect()
    }

    /// Returns the names of all signals declared `out` in the entity.
    pub fn output_signals(&self) -> Vec<Ident> {
        self.signals
            .iter()
            .filter(|s| s.kind == SignalKind::PortOut)
            .map(|s| s.name.clone())
            .collect()
    }

    /// Looks up a process by name.
    pub fn process(&self, name: &str) -> Option<&ElabProcess> {
        self.processes.iter().find(|p| p.name == name)
    }

    /// Whether `name` denotes a local variable of process `pidx`.
    pub fn is_variable_of(&self, pidx: usize, name: &str) -> bool {
        self.processes
            .get(pidx)
            .map(|p| p.variables.iter().any(|v| v.name == name))
            .unwrap_or(false)
    }

    /// The type of `name` in the scope of process `pidx` (variable or signal).
    pub fn type_of(&self, pidx: usize, name: &str) -> Option<&Type> {
        if let Some(p) = self.processes.get(pidx) {
            if let Some(v) = p.variables.iter().find(|v| v.name == name) {
                return Some(&v.ty);
            }
        }
        self.signal(name).map(|s| &s.ty)
    }

    /// Free variables of `e` in the scope of process `pidx` (the `FV(e)` of
    /// the paper).
    pub fn free_vars(&self, pidx: usize, e: &Expr) -> BTreeSet<Ident> {
        e.referenced_names()
            .into_iter()
            .filter(|n| self.is_variable_of(pidx, n))
            .collect()
    }

    /// Free signals of `e` (the `FS(e)` of the paper).
    pub fn free_signals(&self, e: &Expr) -> BTreeSet<Ident> {
        e.referenced_names()
            .into_iter()
            .filter(|n| self.is_signal(n))
            .collect()
    }

    /// Free variables of the whole body of process `pidx` (`FV(ss_i)`).
    pub fn process_free_vars(&self, pidx: usize) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        if let Some(p) = self.processes.get(pidx) {
            p.body.visit(&mut |s| collect_stmt_names(s, &mut out));
        }
        out.into_iter()
            .filter(|n| self.is_variable_of(pidx, n))
            .collect()
    }

    /// Free signals of the whole body of process `pidx` (`FS(ss_i)`).
    pub fn process_free_signals(&self, pidx: usize) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        if let Some(p) = self.processes.get(pidx) {
            p.body.visit(&mut |s| collect_stmt_names(s, &mut out));
        }
        out.into_iter().filter(|n| self.is_signal(n)).collect()
    }

    /// Labels of the `wait` statements of process `pidx` (the `WS(ss_i)` of
    /// Table 5).
    pub fn wait_labels(&self, pidx: usize) -> Vec<Label> {
        let mut out = Vec::new();
        if let Some(p) = self.processes.get(pidx) {
            p.body.visit(&mut |s| {
                if let Stmt::Wait { label, .. } = s {
                    out.push(*label);
                }
            });
        }
        out
    }

    /// Labels of all `wait` statements of the whole design (the set `WS`).
    pub fn all_wait_labels(&self) -> Vec<Label> {
        (0..self.processes.len())
            .flat_map(|i| self.wait_labels(i))
            .collect()
    }

    /// Maps every label to the index of the process it occurs in.
    pub fn label_owner(&self) -> BTreeMap<Label, usize> {
        let mut out = BTreeMap::new();
        for (i, p) in self.processes.iter().enumerate() {
            p.body.visit(&mut |s| {
                if let Some(l) = stmt_label(s) {
                    out.insert(l, i);
                }
            });
        }
        out
    }

    /// The largest label in the design (labels are `1..=max_label`).
    pub fn max_label(&self) -> Label {
        self.label_owner().keys().copied().max().unwrap_or(0)
    }

    /// All variable and signal names of the design (the resources of the
    /// information-flow graph).
    pub fn resource_names(&self) -> BTreeSet<Ident> {
        let mut out: BTreeSet<Ident> = self.signals.iter().map(|s| s.name.clone()).collect();
        for p in &self.processes {
            out.extend(p.variables.iter().map(|v| v.name.clone()));
        }
        out
    }

    /// The dense `u32` numbering of the design's signals, as assigned by
    /// elaboration: signal `i` is `self.signals[i]` (ports first, then
    /// internal signals in declaration order).
    ///
    /// Dense consumers — notably the `vhdl1-sim` interned simulator core —
    /// index flat per-signal stores and bitsets by these ids instead of
    /// looking names up in ordered maps.
    pub fn signal_numbering(&self) -> SignalNumbering {
        SignalNumbering {
            ids: self
                .signals
                .iter()
                .enumerate()
                .map(|(i, s)| (s.name.clone(), i as u32))
                .collect(),
            count: self.signals.len(),
        }
    }
}

/// Name → dense id translation for the signals of one [`Design`].
///
/// Ids are stable across calls: they are the positions of
/// [`Design::signals`], fixed at elaboration time.
#[derive(Debug, Clone, Default)]
pub struct SignalNumbering {
    ids: std::collections::HashMap<Ident, u32>,
    count: usize,
}

impl SignalNumbering {
    /// The id of `name`, if it denotes a signal of the design.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Number of signals covered by the numbering.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the design has no signals at all.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The label carried by an elementary statement, if any.
pub fn stmt_label(s: &Stmt) -> Option<Label> {
    match s {
        Stmt::Null { label }
        | Stmt::VarAssign { label, .. }
        | Stmt::SignalAssign { label, .. }
        | Stmt::Wait { label, .. }
        | Stmt::If { label, .. }
        | Stmt::While { label, .. } => Some(*label),
        Stmt::Seq(..) => None,
    }
}

fn collect_stmt_names(s: &Stmt, out: &mut BTreeSet<Ident>) {
    match s {
        Stmt::VarAssign { target, expr, .. } | Stmt::SignalAssign { target, expr, .. } => {
            out.insert(target.name.clone());
            out.extend(expr.referenced_names());
        }
        Stmt::Wait { on, until, .. } => {
            out.extend(on.iter().cloned());
            out.extend(until.referenced_names());
        }
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => {
            out.extend(cond.referenced_names());
        }
        Stmt::Null { .. } | Stmt::Seq(..) => {}
    }
}

/// Options controlling elaboration.
#[derive(Debug, Clone, Default)]
pub struct ElaborateOptions {
    /// Pick this architecture when the program contains several.
    pub architecture: Option<Ident>,
}

/// Elaborates the (single or named) architecture of `program` into a
/// [`Design`].
///
/// # Errors
///
/// Returns a [`SyntaxError`] when the architecture or its entity cannot be
/// found, when names clash or are undeclared, or when assignments target the
/// wrong class of name (`:=` on a signal, `<=` on a variable, any assignment
/// to an `in` port).
pub fn elaborate(program: &Program) -> Result<Design, SyntaxError> {
    elaborate_with(program, &ElaborateOptions::default())
}

/// Elaborates with explicit [`ElaborateOptions`].
///
/// # Errors
///
/// See [`elaborate`].
pub fn elaborate_with(
    program: &Program,
    options: &ElaborateOptions,
) -> Result<Design, SyntaxError> {
    let arch = match &options.architecture {
        Some(name) => program
            .architecture(name)
            .ok_or_else(|| SyntaxError::elaborate(format!("no architecture named `{name}`")))?,
        None => {
            let mut archs = program.architectures();
            let first = archs
                .next()
                .ok_or_else(|| SyntaxError::elaborate("program contains no architecture".into()))?;
            if archs.next().is_some() {
                return Err(SyntaxError::elaborate(
                    "program contains several architectures; select one explicitly".into(),
                ));
            }
            first
        }
    };

    let mut signals: Vec<SignalInfo> = Vec::new();
    let mut seen: BTreeSet<Ident> = BTreeSet::new();

    // Entity ports (if the entity is missing we elaborate a closed design).
    if let Some(entity) = program.entity(&arch.entity) {
        for port in &entity.ports {
            if !seen.insert(port.name.clone()) {
                return Err(SyntaxError::elaborate_at(
                    port.span.pos(),
                    format!("duplicate port `{}`", port.name),
                ));
            }
            signals.push(SignalInfo {
                name: port.name.clone(),
                kind: match port.mode {
                    PortMode::In => SignalKind::PortIn,
                    PortMode::Out => SignalKind::PortOut,
                },
                ty: port.ty.clone(),
                init: None,
            });
        }
    }

    // Architecture-level declarations: internal signals only.
    for decl in &arch.decls {
        match decl {
            Decl::Signal { name, ty, init, .. } => {
                if !seen.insert(name.clone()) {
                    return Err(SyntaxError::elaborate_at(
                        decl.span().pos(),
                        format!("duplicate signal `{name}`"),
                    ));
                }
                signals.push(SignalInfo {
                    name: name.clone(),
                    kind: SignalKind::Internal,
                    ty: ty.clone(),
                    init: init.clone(),
                });
            }
            Decl::Variable { name, .. } => {
                return Err(SyntaxError::elaborate_at(
                    decl.span().pos(),
                    format!("variable `{name}` declared outside a process"),
                ));
            }
        }
    }

    // Flatten the concurrent statements, collecting processes and the signals
    // declared in blocks / processes.
    let mut raw_processes: Vec<(Ident, Vec<VariableInfo>, Stmt)> = Vec::new();
    let mut synthetic = 0usize;
    collect_concurrent(
        &arch.body,
        &mut signals,
        &mut seen,
        &mut raw_processes,
        &mut synthetic,
    )?;

    if raw_processes.is_empty() {
        return Err(SyntaxError::elaborate(format!(
            "architecture `{}` contains no process",
            arch.name
        )));
    }

    // Build the design with unlabelled bodies first so name checks can use it.
    let mut design = Design {
        name: arch.name.clone(),
        entity: arch.entity.clone(),
        signals,
        processes: raw_processes
            .iter()
            .enumerate()
            .map(|(index, (name, variables, body))| ElabProcess {
                name: name.clone(),
                index,
                variables: variables.clone(),
                body: body.clone(),
            })
            .collect(),
    };

    // Prune default `wait on` lists to signals, check names and assignment
    // classes, and assign labels.
    let mut next_label: Label = 1;
    for pidx in 0..design.processes.len() {
        let mut body = design.processes[pidx].body.clone();
        prune_and_check(&design, pidx, &mut body)?;
        assign_labels(&mut body, &mut next_label);
        design.processes[pidx].body = body;
    }

    Ok(design)
}

fn collect_concurrent(
    body: &[Concurrent],
    signals: &mut Vec<SignalInfo>,
    seen: &mut BTreeSet<Ident>,
    processes: &mut Vec<(Ident, Vec<VariableInfo>, Stmt)>,
    synthetic: &mut usize,
) -> Result<(), SyntaxError> {
    for cs in body {
        match cs {
            Concurrent::Assign { target, expr } => {
                // Section 2: a concurrent assignment is a process sensitive to
                // the free signals of the right-hand side.
                *synthetic += 1;
                let name = format!("casg_{}_{}", target.name, synthetic);
                let wait_on = expr.referenced_names();
                let body = Stmt::Seq(
                    Box::new(Stmt::SignalAssign {
                        label: 0,
                        target: target.clone(),
                        expr: expr.clone(),
                    }),
                    Box::new(Stmt::Wait {
                        label: 0,
                        on: wait_on,
                        until: Expr::one(),
                    }),
                );
                processes.push((name, Vec::new(), body));
            }
            Concurrent::Process(p) => {
                let mut variables = Vec::new();
                for decl in &p.decls {
                    match decl {
                        Decl::Variable { name, ty, init, .. } => variables.push(VariableInfo {
                            name: name.clone(),
                            ty: ty.clone(),
                            init: init.clone(),
                        }),
                        Decl::Signal { name, ty, init, .. } => {
                            if !seen.insert(name.clone()) {
                                return Err(SyntaxError::elaborate_at(
                                    decl.span().pos(),
                                    format!("duplicate signal `{name}`"),
                                ));
                            }
                            signals.push(SignalInfo {
                                name: name.clone(),
                                kind: SignalKind::Internal,
                                ty: ty.clone(),
                                init: init.clone(),
                            });
                        }
                    }
                }
                let name = if p.name.is_empty() {
                    *synthetic += 1;
                    format!("process_{synthetic}")
                } else {
                    p.name.clone()
                };
                processes.push((name, variables, p.body.clone()));
            }
            Concurrent::Block(b) => {
                for decl in &b.decls {
                    match decl {
                        Decl::Signal { name, ty, init, .. } => {
                            if !seen.insert(name.clone()) {
                                return Err(SyntaxError::elaborate_at(
                                    decl.span().pos(),
                                    format!("duplicate signal `{name}`"),
                                ));
                            }
                            signals.push(SignalInfo {
                                name: name.clone(),
                                kind: SignalKind::Internal,
                                ty: ty.clone(),
                                init: init.clone(),
                            });
                        }
                        Decl::Variable { name, .. } => {
                            return Err(SyntaxError::elaborate_at(
                                decl.span().pos(),
                                format!("variable `{name}` declared in block `{}`", b.name),
                            ));
                        }
                    }
                }
                collect_concurrent(&b.body, signals, seen, processes, synthetic)?;
            }
        }
    }
    Ok(())
}

fn prune_and_check(design: &Design, pidx: usize, stmt: &mut Stmt) -> Result<(), SyntaxError> {
    match stmt {
        Stmt::Seq(a, b) => {
            prune_and_check(design, pidx, a)?;
            prune_and_check(design, pidx, b)?;
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            check_expr(design, pidx, cond)?;
            prune_and_check(design, pidx, then_branch)?;
            prune_and_check(design, pidx, else_branch)?;
        }
        Stmt::While { cond, body, .. } => {
            check_expr(design, pidx, cond)?;
            prune_and_check(design, pidx, body)?;
        }
        Stmt::Wait { on, until, .. } => {
            check_expr(design, pidx, until)?;
            // Default sensitivity lists collected by the parser may mention
            // variables; keep signals only (FS of the condition).
            on.retain(|n| design.is_signal(n));
            for n in on.iter() {
                if !design.is_signal(n) {
                    return Err(SyntaxError::elaborate(format!(
                        "`wait on {n}` in process `{}` does not name a signal",
                        design.processes[pidx].name
                    )));
                }
            }
        }
        Stmt::VarAssign { target, expr, .. } => {
            check_expr(design, pidx, expr)?;
            if !design.is_variable_of(pidx, &target.name) {
                return Err(SyntaxError::elaborate_at(
                    target.span.pos(),
                    format!(
                        "`:=` target `{}` is not a variable of process `{}`",
                        target.name, design.processes[pidx].name
                    ),
                ));
            }
        }
        Stmt::SignalAssign { target, expr, .. } => {
            check_expr(design, pidx, expr)?;
            match design.signal(&target.name) {
                None => {
                    return Err(SyntaxError::elaborate_at(
                        target.span.pos(),
                        format!(
                            "`<=` target `{}` is not a signal (process `{}`)",
                            target.name, design.processes[pidx].name
                        ),
                    ))
                }
                Some(info) if info.kind == SignalKind::PortIn => {
                    return Err(SyntaxError::elaborate_at(
                        target.span.pos(),
                        format!(
                            "signal `{}` is an `in` port and cannot be driven",
                            target.name
                        ),
                    ))
                }
                Some(_) => {}
            }
        }
        Stmt::Null { .. } => {}
    }
    Ok(())
}

fn check_expr(design: &Design, pidx: usize, e: &Expr) -> Result<(), SyntaxError> {
    for n in e.referenced_names() {
        if !design.is_signal(&n) && !design.is_variable_of(pidx, &n) {
            return Err(SyntaxError::elaborate_at(
                e.pos_of_name(&n),
                format!(
                    "name `{n}` is not declared in the scope of process `{}`",
                    design.processes[pidx].name
                ),
            ));
        }
    }
    Ok(())
}

/// Assigns consecutive labels to elementary blocks in textual order.
pub fn assign_labels(stmt: &mut Stmt, next: &mut Label) {
    match stmt {
        Stmt::Null { label }
        | Stmt::VarAssign { label, .. }
        | Stmt::SignalAssign { label, .. }
        | Stmt::Wait { label, .. } => {
            *label = *next;
            *next += 1;
        }
        Stmt::Seq(a, b) => {
            assign_labels(a, next);
            assign_labels(b, next);
        }
        Stmt::If {
            label,
            then_branch,
            else_branch,
            ..
        } => {
            *label = *next;
            *next += 1;
            assign_labels(then_branch, next);
            assign_labels(else_branch, next);
        }
        Stmt::While { label, body, .. } => {
            *label = *next;
            *next += 1;
            assign_labels(body, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SIMPLE: &str = "
        entity e is port(a : in std_logic; b : out std_logic); end e;
        architecture rtl of e is
          signal t : std_logic;
        begin
          p1 : process
            variable v : std_logic;
          begin
            v := a;
            t <= v;
            wait on a;
          end process p1;
          b <= t;
        end rtl;";

    #[test]
    fn elaborates_ports_signals_and_processes() {
        let d = elaborate(&parse(SIMPLE).unwrap()).unwrap();
        assert_eq!(d.signals.len(), 3);
        assert_eq!(d.signal("a").unwrap().kind, SignalKind::PortIn);
        assert_eq!(d.signal("b").unwrap().kind, SignalKind::PortOut);
        assert_eq!(d.signal("t").unwrap().kind, SignalKind::Internal);
        // The concurrent assignment becomes a second process.
        assert_eq!(d.processes.len(), 2);
        assert!(d.processes[1].name.starts_with("casg_b"));
        assert_eq!(d.input_signals(), vec!["a".to_string()]);
        assert_eq!(d.output_signals(), vec!["b".to_string()]);
    }

    #[test]
    fn labels_are_unique_and_dense() {
        let d = elaborate(&parse(SIMPLE).unwrap()).unwrap();
        let owners = d.label_owner();
        let labels: Vec<Label> = owners.keys().copied().collect();
        assert_eq!(labels, (1..=d.max_label()).collect::<Vec<_>>());
        // p1 has 3 elementary blocks, the synthesised process has 2.
        assert_eq!(d.max_label(), 5);
        assert_eq!(owners[&1], 0);
        assert_eq!(owners[&5], 1);
    }

    #[test]
    fn free_vars_and_signals_are_classified() {
        let d = elaborate(&parse(SIMPLE).unwrap()).unwrap();
        let e = crate::parser::parse_expression("v and a and t").unwrap();
        let fv = d.free_vars(0, &e);
        let fs = d.free_signals(&e);
        assert!(fv.contains("v") && fv.len() == 1);
        assert!(fs.contains("a") && fs.contains("t") && fs.len() == 2);
        assert_eq!(d.process_free_vars(0), BTreeSet::from(["v".to_string()]));
        assert!(d.process_free_signals(0).contains("a"));
    }

    #[test]
    fn wait_labels_reported_per_process() {
        let d = elaborate(&parse(SIMPLE).unwrap()).unwrap();
        assert_eq!(d.wait_labels(0), vec![3]);
        assert_eq!(d.wait_labels(1), vec![5]);
        assert_eq!(d.all_wait_labels(), vec![3, 5]);
    }

    #[test]
    fn rejects_assignment_class_confusion() {
        let bad_var = "
            entity e is port(a : in std_logic); end e;
            architecture rtl of e is signal t : std_logic; begin
              p : process begin t := a; wait on a; end process;
            end rtl;";
        assert!(elaborate(&parse(bad_var).unwrap()).is_err());
        let bad_sig = "
            entity e is port(a : in std_logic); end e;
            architecture rtl of e is begin
              p : process variable v : std_logic; begin v <= a; wait on a; end process;
            end rtl;";
        assert!(elaborate(&parse(bad_sig).unwrap()).is_err());
    }

    #[test]
    fn elaboration_errors_carry_source_positions() {
        // Undeclared name: the error points at the offending identifier.
        let src = "entity e is port(a : in std_logic; b : out std_logic); end e;
architecture rtl of e is begin
  p : process begin b <= ghost; wait on a; end process;
end rtl;";
        let err = elaborate(&parse(src).unwrap()).unwrap_err();
        let pos = err
            .pos()
            .expect("undeclared-name error must carry a position");
        assert_eq!((pos.line, pos.col), (3, 26), "{err}");
        assert!(err.to_string().contains("at 3:26"), "{err}");

        // Duplicate signal: the error points at the re-declaration.
        let src = "entity e is port(t : in std_logic); end e;
architecture rtl of e is
  signal t : std_logic;
begin
  p : process begin null; wait on t; end process;
end rtl;";
        let err = elaborate(&parse(src).unwrap()).unwrap_err();
        let pos = err
            .pos()
            .expect("duplicate-signal error must carry a position");
        assert_eq!((pos.line, pos.col), (3, 10), "{err}");

        // Assignment-class confusion: the error points at the target.
        let src = "entity e is port(a : in std_logic); end e;
architecture rtl of e is signal t : std_logic; begin
  p : process begin
    t := a;
    wait on a;
  end process;
end rtl;";
        let err = elaborate(&parse(src).unwrap()).unwrap_err();
        let pos = err.pos().expect("`:=` class error must carry a position");
        assert_eq!((pos.line, pos.col), (4, 5), "{err}");
    }

    #[test]
    fn programmatic_asts_still_elaborate_without_positions() {
        // ASTs built without spans (corpus generator, workloads) produce
        // position-less elaboration errors, and Display degrades gracefully.
        use crate::ast::{Expr, Target};
        let mut prog = parse(
            "entity e is port(a : in std_logic); end e;
             architecture rtl of e is begin
               p : process begin null; wait on a; end process;
             end rtl;",
        )
        .unwrap();
        // Splice in an unpositioned assignment to an undeclared name.
        if let crate::ast::DesignUnit::Architecture(arch) = &mut prog.units[1] {
            if let crate::ast::Concurrent::Process(p) = &mut arch.body[0] {
                p.body = Stmt::Seq(
                    Box::new(Stmt::SignalAssign {
                        label: 0,
                        target: Target::whole("nowhere"),
                        expr: Expr::one(),
                    }),
                    Box::new(p.body.clone()),
                );
            }
        }
        let err = elaborate(&prog).unwrap_err();
        assert!(err.pos().is_none());
        assert!(err.to_string().starts_with("elaboration error: "));
    }

    #[test]
    fn rejects_driving_an_input_port() {
        let src = "
            entity e is port(a : in std_logic); end e;
            architecture rtl of e is begin
              p : process begin a <= '1'; wait on a; end process;
            end rtl;";
        assert!(elaborate(&parse(src).unwrap()).is_err());
    }

    #[test]
    fn rejects_undeclared_names() {
        let src = "
            entity e is port(a : in std_logic; b : out std_logic); end e;
            architecture rtl of e is begin
              p : process begin b <= ghost; wait on a; end process;
            end rtl;";
        assert!(elaborate(&parse(src).unwrap()).is_err());
    }

    #[test]
    fn block_signals_are_flattened() {
        let src = "
            entity e is port(a : in std_logic; b : out std_logic); end e;
            architecture rtl of e is begin
              blk : block signal t : std_logic; begin
                p : process begin t <= a; wait on a; end process;
                b <= t;
              end block blk;
            end rtl;";
        let d = elaborate(&parse(src).unwrap()).unwrap();
        assert_eq!(d.signal("t").unwrap().kind, SignalKind::Internal);
        assert_eq!(d.processes.len(), 2);
    }

    #[test]
    fn duplicate_signals_rejected() {
        let src = "
            entity e is port(t : in std_logic); end e;
            architecture rtl of e is signal t : std_logic; begin
              p : process begin null; wait on t; end process;
            end rtl;";
        assert!(elaborate(&parse(src).unwrap()).is_err());
    }

    #[test]
    fn default_wait_sensitivity_pruned_to_signals() {
        let src = "
            entity e is port(a : in std_logic); end e;
            architecture rtl of e is begin
              p : process variable v : std_logic; begin
                v := a;
                wait until v = '1' and a = '1';
              end process;
            end rtl;";
        let d = elaborate(&parse(src).unwrap()).unwrap();
        let mut waits = Vec::new();
        d.processes[0].body.visit(&mut |s| {
            if let Stmt::Wait { on, .. } = s {
                waits.push(on.clone());
            }
        });
        assert_eq!(waits, vec![vec!["a".to_string()]]);
    }

    #[test]
    fn resource_names_cover_variables_and_signals() {
        let d = elaborate(&parse(SIMPLE).unwrap()).unwrap();
        let names = d.resource_names();
        for n in ["a", "b", "t", "v"] {
            assert!(names.contains(n), "missing {n}");
        }
    }

    #[test]
    fn selecting_architecture_by_name() {
        let src = "
            entity e is port(a : in std_logic; b : out std_logic); end e;
            architecture one of e is begin p : process begin b <= a; wait on a; end process; end one;
            architecture two of e is begin q : process begin b <= a; wait on a; end process; end two;";
        let prog = parse(src).unwrap();
        assert!(elaborate(&prog).is_err());
        let d = elaborate_with(
            &prog,
            &ElaborateOptions {
                architecture: Some("two".into()),
            },
        )
        .unwrap();
        assert_eq!(d.name, "two");
        assert_eq!(d.processes[0].name, "q");
    }
}
