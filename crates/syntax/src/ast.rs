//! Abstract syntax tree for the VHDL1 fragment of Figure 1 of the paper.
//!
//! VHDL1 programs consist of entities and architectures.  Architectures are
//! families of concurrent statements (processes, blocks and concurrent signal
//! assignments); processes have sequential statement bodies operating on local
//! variables and signals.
//!
//! Elementary statements carry a [`Label`]; labels are assigned by the
//! elaboration pass ([`mod@crate::elaborate`]) and are unique across the whole
//! program, as required by the analyses of Sections 4 and 5.

use crate::token::Span;
use std::fmt;

/// Identifier of an entity, architecture, process, block, variable or signal.
pub type Ident = String;

/// Program-point label attached to elementary blocks (Section 4, "Common
/// analysis domains").  Label `0` means "not yet assigned".
pub type Label = u32;

/// A complete VHDL1 program: a sequence of design units.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The design units in source order.
    pub units: Vec<DesignUnit>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the entity with the given name, if any.
    pub fn entity(&self, name: &str) -> Option<&Entity> {
        self.units.iter().find_map(|u| match u {
            DesignUnit::Entity(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// Returns the architecture with the given name, if any.
    pub fn architecture(&self, name: &str) -> Option<&Architecture> {
        self.units.iter().find_map(|u| match u {
            DesignUnit::Architecture(a) if a.name == name => Some(a),
            _ => None,
        })
    }

    /// Returns all architectures in the program.
    pub fn architectures(&self) -> impl Iterator<Item = &Architecture> {
        self.units.iter().filter_map(|u| match u {
            DesignUnit::Architecture(a) => Some(a),
            _ => None,
        })
    }

    /// Returns all entities in the program.
    pub fn entities(&self) -> impl Iterator<Item = &Entity> {
        self.units.iter().filter_map(|u| match u {
            DesignUnit::Entity(e) => Some(e),
            _ => None,
        })
    }
}

/// Either an entity declaration or an architecture body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignUnit {
    /// `entity i_e is port(...); end i_e;`
    Entity(Entity),
    /// `architecture i_a of i_e is ... begin css; end i_a;`
    Architecture(Architecture),
}

/// An entity declaration: the interface of a design to its environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// Entity identifier `i_e`.
    pub name: Ident,
    /// The ports connecting the design to the environment.
    pub ports: Vec<Port>,
}

/// A single port of an entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// The signal name used to refer to the port.
    pub name: Ident,
    /// Whether the environment drives (`in`) or observes (`out`) the port.
    pub mode: PortMode,
    /// The carried type.
    pub ty: Type,
    /// Source position of the port name (diagnostics only, invisible to `==`).
    pub span: Span,
}

/// Direction of a port as seen from the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortMode {
    /// The environment may alter the signal's value.
    In,
    /// The environment may read the signal's value.
    Out,
}

impl fmt::Display for PortMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortMode::In => write!(f, "in"),
            PortMode::Out => write!(f, "out"),
        }
    }
}

/// Types of VHDL1 values: single `std_logic` wires or vectors of them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A single standard-logic value.
    StdLogic,
    /// `std_logic_vector(left downto right)` or `std_logic_vector(left to right)`.
    StdLogicVector {
        /// Index ordering of the declaration.
        dir: RangeDir,
        /// The left bound as written.
        left: i64,
        /// The right bound as written.
        right: i64,
    },
}

impl Type {
    /// Convenience constructor for `std_logic_vector(hi downto lo)`.
    pub fn vector_downto(hi: i64, lo: i64) -> Self {
        Type::StdLogicVector {
            dir: RangeDir::Downto,
            left: hi,
            right: lo,
        }
    }

    /// Convenience constructor for `std_logic_vector(lo to hi)`.
    pub fn vector_to(lo: i64, hi: i64) -> Self {
        Type::StdLogicVector {
            dir: RangeDir::To,
            left: lo,
            right: hi,
        }
    }

    /// Number of `std_logic` elements carried by this type.
    pub fn width(&self) -> usize {
        match self {
            Type::StdLogic => 1,
            Type::StdLogicVector { left, right, .. } => ((left - right).abs() + 1) as usize,
        }
    }

    /// Smallest index of the vector range (equals `0` for `std_logic`).
    pub fn low_index(&self) -> i64 {
        match self {
            Type::StdLogic => 0,
            Type::StdLogicVector { left, right, .. } => (*left).min(*right),
        }
    }

    /// Largest index of the vector range (equals `0` for `std_logic`).
    pub fn high_index(&self) -> i64 {
        match self {
            Type::StdLogic => 0,
            Type::StdLogicVector { left, right, .. } => (*left).max(*right),
        }
    }

    /// Whether the type is a vector type.
    pub fn is_vector(&self) -> bool {
        matches!(self, Type::StdLogicVector { .. })
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::StdLogic => write!(f, "std_logic"),
            Type::StdLogicVector { dir, left, right } => {
                write!(f, "std_logic_vector({left} {dir} {right})")
            }
        }
    }
}

/// Index ordering of a vector range or slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeDir {
    /// `z1 downto z2` — indices decrease left to right.
    Downto,
    /// `z1 to z2` — indices increase left to right.
    To,
}

impl fmt::Display for RangeDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeDir::Downto => write!(f, "downto"),
            RangeDir::To => write!(f, "to"),
        }
    }
}

/// A slice `(z1 downto z2)` / `(z1 to z2)` of a vector variable or signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slice {
    /// Index ordering as written.
    pub dir: RangeDir,
    /// Left bound.
    pub left: i64,
    /// Right bound.
    pub right: i64,
}

impl Slice {
    /// Constructs a `downto` slice.
    pub fn downto(left: i64, right: i64) -> Self {
        Slice {
            dir: RangeDir::Downto,
            left,
            right,
        }
    }

    /// Constructs a `to` slice.
    pub fn to(left: i64, right: i64) -> Self {
        Slice {
            dir: RangeDir::To,
            left,
            right,
        }
    }

    /// Number of elements selected by the slice.
    pub fn width(&self) -> usize {
        ((self.left - self.right).abs() + 1) as usize
    }

    /// Smallest selected index.
    pub fn low(&self) -> i64 {
        self.left.min(self.right)
    }

    /// Largest selected index.
    pub fn high(&self) -> i64 {
        self.left.max(self.right)
    }
}

impl fmt::Display for Slice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} {} {})", self.left, self.dir, self.right)
    }
}

/// An architecture body: the behavioural specification of an entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    /// Architecture identifier `i_a`.
    pub name: Ident,
    /// The entity implemented by this architecture.
    pub entity: Ident,
    /// Declarations appearing before `begin` (internal signals).
    pub decls: Vec<Decl>,
    /// The concurrent statements of the architecture.
    pub body: Vec<Concurrent>,
}

/// Concurrent statements (`css` in Figure 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Concurrent {
    /// Concurrent signal assignment `s <= e` (possibly sliced).  Equivalent to
    /// a process sensitive to the free signals of `e` containing the same
    /// assignment (Section 2).
    Assign {
        /// Assigned signal with optional slice.
        target: Target,
        /// Driving expression.
        expr: Expr,
    },
    /// A named process with local declarations and a sequential body.
    Process(Process),
    /// A named block introducing locally scoped signals.
    Block(Block),
}

/// `i_p : process decl; begin ss; end process i_p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Process {
    /// Process identifier `i_p`.
    pub name: Ident,
    /// Local variable and signal declarations.
    pub decls: Vec<Decl>,
    /// The sequential body, repeated indefinitely by the semantics.
    pub body: Stmt,
}

/// `i_b : block decl; begin css; end block i_b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Block identifier `i_b`.
    pub name: Ident,
    /// Local signal declarations scoped to the block.
    pub decls: Vec<Decl>,
    /// The concurrent statements inside the block.
    pub body: Vec<Concurrent>,
}

/// Declarations of local variables and signals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decl {
    /// `variable x : type := e`.
    Variable {
        /// Declared name.
        name: Ident,
        /// Declared type.
        ty: Type,
        /// Optional initial value.
        init: Option<Expr>,
        /// Source position of the declared name (diagnostics only).
        span: Span,
    },
    /// `signal s : type := e`.
    Signal {
        /// Declared name.
        name: Ident,
        /// Declared type.
        ty: Type,
        /// Optional initial value.
        init: Option<Expr>,
        /// Source position of the declared name (diagnostics only).
        span: Span,
    },
}

impl Decl {
    /// The declared name.
    pub fn name(&self) -> &Ident {
        match self {
            Decl::Variable { name, .. } | Decl::Signal { name, .. } => name,
        }
    }

    /// The declared type.
    pub fn ty(&self) -> &Type {
        match self {
            Decl::Variable { ty, .. } | Decl::Signal { ty, .. } => ty,
        }
    }

    /// The optional initialiser.
    pub fn init(&self) -> Option<&Expr> {
        match self {
            Decl::Variable { init, .. } | Decl::Signal { init, .. } => init.as_ref(),
        }
    }

    /// Source position of the declared name, if the declaration was parsed.
    pub fn span(&self) -> Span {
        match self {
            Decl::Variable { span, .. } | Decl::Signal { span, .. } => *span,
        }
    }

    /// Whether this is a signal declaration.
    pub fn is_signal(&self) -> bool {
        matches!(self, Decl::Signal { .. })
    }
}

/// Assignment target: a name with an optional slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Target {
    /// The assigned variable or signal.
    pub name: Ident,
    /// Optional sub-range of a vector target.
    pub slice: Option<Slice>,
    /// Source position of the target name (diagnostics only).
    pub span: Span,
}

impl Target {
    /// A whole-name target.
    pub fn whole(name: impl Into<Ident>) -> Self {
        Target {
            name: name.into(),
            slice: None,
            span: Span::NONE,
        }
    }

    /// A sliced target.
    pub fn sliced(name: impl Into<Ident>, slice: Slice) -> Self {
        Target {
            name: name.into(),
            slice: Some(slice),
            span: Span::NONE,
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if let Some(sl) = &self.slice {
            write!(f, "{sl}")?;
        }
        Ok(())
    }
}

/// Sequential statements (`ss` in Figure 1).
///
/// Elementary statements carry the [`Label`] of the elementary block they
/// form; `if` and `while` label their condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `null`.
    Null {
        /// Label of the skip block.
        label: Label,
    },
    /// `x := e` (possibly sliced target).
    VarAssign {
        /// Label of the assignment block.
        label: Label,
        /// Assigned variable.
        target: Target,
        /// Right-hand side.
        expr: Expr,
    },
    /// `s <= e` (possibly sliced target); updates the *active* value of `s`.
    SignalAssign {
        /// Label of the assignment block.
        label: Label,
        /// Assigned signal.
        target: Target,
        /// Right-hand side.
        expr: Expr,
    },
    /// `wait on S until e` — the synchronisation point of the process.
    Wait {
        /// Label of the wait block.
        label: Label,
        /// Signals waited on (`S`); defaults to the free signals of `until`.
        on: Vec<Ident>,
        /// Guard on the new present values; defaults to `'1'`.
        until: Expr,
    },
    /// `ss1 ; ss2`.
    Seq(Box<Stmt>, Box<Stmt>),
    /// `if e then ss1 else ss2`.
    If {
        /// Label of the condition block.
        label: Label,
        /// The branch condition.
        cond: Expr,
        /// Taken when the condition evaluates to `'1'`.
        then_branch: Box<Stmt>,
        /// Taken when the condition evaluates to `'0'`.
        else_branch: Box<Stmt>,
    },
    /// `while e do ss`.
    While {
        /// Label of the condition block.
        label: Label,
        /// The loop condition.
        cond: Expr,
        /// The loop body.
        body: Box<Stmt>,
    },
}

impl Stmt {
    /// Sequences a list of statements; an empty list yields `null` (label 0).
    ///
    /// The sequence is built as a balanced tree (rather than a right-nested
    /// chain) so that recursive traversals of very long statement lists —
    /// such as a fully unrolled AES round — stay within stack limits.
    pub fn seq(mut stmts: Vec<Stmt>) -> Stmt {
        match stmts.len() {
            0 => Stmt::Null { label: 0 },
            1 => stmts.pop().expect("length checked"),
            n => {
                let rest = stmts.split_off(n / 2);
                Stmt::Seq(Box::new(Stmt::seq(stmts)), Box::new(Stmt::seq(rest)))
            }
        }
    }

    /// Flattens nested sequencing into a vector of non-`Seq` statements.
    pub fn flatten(&self) -> Vec<&Stmt> {
        let mut out = Vec::new();
        self.flatten_into(&mut out);
        out
    }

    fn flatten_into<'a>(&'a self, out: &mut Vec<&'a Stmt>) {
        match self {
            Stmt::Seq(a, b) => {
                a.flatten_into(out);
                b.flatten_into(out);
            }
            other => out.push(other),
        }
    }

    /// Visits every statement node (including nested branches), depth first.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::Seq(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.visit(f);
                else_branch.visit(f);
            }
            Stmt::While { body, .. } => body.visit(f),
            _ => {}
        }
    }

    /// Counts elementary blocks (assignments, null, wait, if/while conditions).
    pub fn block_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |s| {
            if !matches!(s, Stmt::Seq(..)) {
                n += 1;
            }
        });
        n
    }
}

/// Unary logical operators on `std_logic` and vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Not => write!(f, "not"),
        }
    }
}

/// Binary operators: logical (`opbm`), relational and arithmetic (`opa`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// Exclusive or.
    Xor,
    /// Negated conjunction.
    Nand,
    /// Negated disjunction.
    Nor,
    /// Negated exclusive or.
    Xnor,
    /// Equality test, yields `std_logic`.
    Eq,
    /// Inequality test, yields `std_logic`.
    Neq,
    /// Less-than on unsigned vector interpretation.
    Lt,
    /// Less-or-equal on unsigned vector interpretation.
    Le,
    /// Greater-than on unsigned vector interpretation.
    Gt,
    /// Greater-or-equal on unsigned vector interpretation.
    Ge,
    /// Unsigned addition (modular in the vector width).
    Add,
    /// Unsigned subtraction (modular in the vector width).
    Sub,
    /// Vector concatenation.
    Concat,
}

impl BinOp {
    /// Whether the operator is one of the logical gate operators (`opbm`).
    pub fn is_logical(&self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Nand | BinOp::Nor | BinOp::Xnor
        )
    }

    /// Whether the operator is relational (yields a single `std_logic`).
    pub fn is_relational(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether the operator is arithmetic on vectors (`opa`).
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Concat)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Nand => "nand",
            BinOp::Nor => "nor",
            BinOp::Xnor => "xnor",
            BinOp::Eq => "=",
            BinOp::Neq => "/=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Concat => "&",
        };
        write!(f, "{s}")
    }
}

/// Expressions (`e` in Figure 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A `std_logic` character literal such as `'1'` or `'Z'`.
    Logic(char),
    /// A vector literal such as `"0101"`.
    Vector(String),
    /// An integer literal; interpreted as an unsigned vector constant whose
    /// width is determined by context (workload-generation convenience).
    Int(i64),
    /// A reference to a variable or signal, possibly sliced.
    Name {
        /// Referenced name.
        name: Ident,
        /// Optional slice.
        slice: Option<Slice>,
        /// Source position of the name (diagnostics only).
        span: Span,
    },
    /// `opum e`.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// `e1 op e2`.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// A reference to a whole variable or signal.
    pub fn name(n: impl Into<Ident>) -> Expr {
        Expr::Name {
            name: n.into(),
            slice: None,
            span: Span::NONE,
        }
    }

    /// A reference to a slice of a vector variable or signal.
    pub fn slice(n: impl Into<Ident>, slice: Slice) -> Expr {
        Expr::Name {
            name: n.into(),
            slice: Some(slice),
            span: Span::NONE,
        }
    }

    /// The literal `'1'`.
    pub fn one() -> Expr {
        Expr::Logic('1')
    }

    /// The literal `'0'`.
    pub fn zero() -> Expr {
        Expr::Logic('0')
    }

    /// Builds `lhs op rhs`.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Builds `not e`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(e),
        }
    }

    /// Collects every name referenced by the expression, in first-occurrence
    /// order without duplicates.
    pub fn referenced_names(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out
    }

    fn collect_names(&self, out: &mut Vec<Ident>) {
        match self {
            Expr::Name { name, .. } => {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
            Expr::Unary { expr, .. } => expr.collect_names(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_names(out);
                rhs.collect_names(out);
            }
            Expr::Logic(_) | Expr::Vector(_) | Expr::Int(_) => {}
        }
    }

    /// Whether the expression is the constant `'1'` (the default `until`
    /// condition of a `wait` statement).
    pub fn is_true_literal(&self) -> bool {
        matches!(self, Expr::Logic('1'))
    }

    /// Source position of the first occurrence of `wanted` in the expression,
    /// if the expression was parsed (diagnostics helper for name errors).
    pub fn pos_of_name(&self, wanted: &str) -> Option<crate::token::Pos> {
        match self {
            Expr::Name { name, span, .. } if name == wanted => span.pos(),
            Expr::Unary { expr, .. } => expr.pos_of_name(wanted),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.pos_of_name(wanted).or_else(|| rhs.pos_of_name(wanted))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_width_and_bounds() {
        assert_eq!(Type::StdLogic.width(), 1);
        let v = Type::vector_downto(7, 0);
        assert_eq!(v.width(), 8);
        assert_eq!(v.low_index(), 0);
        assert_eq!(v.high_index(), 7);
        let w = Type::vector_to(1, 4);
        assert_eq!(w.width(), 4);
        assert_eq!(w.low_index(), 1);
        assert_eq!(w.high_index(), 4);
    }

    #[test]
    fn slice_width() {
        assert_eq!(Slice::downto(3, 0).width(), 4);
        assert_eq!(Slice::to(2, 5).width(), 4);
        assert_eq!(Slice::downto(3, 0).low(), 0);
        assert_eq!(Slice::to(2, 5).high(), 5);
    }

    #[test]
    fn stmt_seq_flatten_roundtrip() {
        let s = Stmt::seq(vec![
            Stmt::Null { label: 0 },
            Stmt::VarAssign {
                label: 0,
                target: Target::whole("x"),
                expr: Expr::one(),
            },
            Stmt::Null { label: 0 },
        ]);
        let flat = s.flatten();
        assert_eq!(flat.len(), 3);
        assert_eq!(s.block_count(), 3);
    }

    #[test]
    fn stmt_seq_empty_is_null() {
        assert_eq!(Stmt::seq(vec![]), Stmt::Null { label: 0 });
    }

    #[test]
    fn expr_referenced_names_dedup() {
        let e = Expr::binary(
            BinOp::And,
            Expr::name("a"),
            Expr::binary(BinOp::Or, Expr::name("b"), Expr::name("a")),
        );
        assert_eq!(e.referenced_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Type::vector_downto(7, 0).to_string(),
            "std_logic_vector(7 downto 0)"
        );
        assert_eq!(
            Target::sliced("x", Slice::to(0, 3)).to_string(),
            "x(0 to 3)"
        );
        assert_eq!(BinOp::Neq.to_string(), "/=");
        assert_eq!(PortMode::Out.to_string(), "out");
    }

    #[test]
    fn block_count_counts_conditions() {
        // if c then x:=1 else null  => cond + assign + null = 3 blocks
        let s = Stmt::If {
            label: 0,
            cond: Expr::name("c"),
            then_branch: Box::new(Stmt::VarAssign {
                label: 0,
                target: Target::whole("x"),
                expr: Expr::one(),
            }),
            else_branch: Box::new(Stmt::Null { label: 0 }),
        };
        assert_eq!(s.block_count(), 3);
    }
}
