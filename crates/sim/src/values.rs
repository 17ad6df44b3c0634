//! The `std_logic` value domain of Section 3 and IEEE 1164.
//!
//! Logical values capture electrical behaviour beyond booleans: unknowns,
//! high impedance, weak drivers and don't-cares.  Signals driven by several
//! processes are combined with the standard resolution function, which the
//! semantics applies to the multiset of active values at each
//! synchronisation point.

use std::fmt;

/// A single standard-logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Logic {
    /// `'U'` — uninitialised.
    U,
    /// `'X'` — forcing unknown.
    X,
    /// `'0'` — forcing zero.
    Zero,
    /// `'1'` — forcing one.
    One,
    /// `'Z'` — high impedance.
    Z,
    /// `'W'` — weak unknown.
    W,
    /// `'L'` — weak zero.
    L,
    /// `'H'` — weak one.
    H,
    /// `'-'` — don't care.
    DontCare,
}

impl Logic {
    /// All nine values in standard order.
    pub const ALL: [Logic; 9] = [
        Logic::U,
        Logic::X,
        Logic::Zero,
        Logic::One,
        Logic::Z,
        Logic::W,
        Logic::L,
        Logic::H,
        Logic::DontCare,
    ];

    /// Parses the character form (`'U'`, `'X'`, `'0'`, ...).
    pub fn from_char(c: char) -> Option<Logic> {
        Some(match c.to_ascii_uppercase() {
            'U' => Logic::U,
            'X' => Logic::X,
            '0' => Logic::Zero,
            '1' => Logic::One,
            'Z' => Logic::Z,
            'W' => Logic::W,
            'L' => Logic::L,
            'H' => Logic::H,
            '-' => Logic::DontCare,
            _ => return None,
        })
    }

    /// The character form of the value.
    pub fn to_char(self) -> char {
        match self {
            Logic::U => 'U',
            Logic::X => 'X',
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::Z => 'Z',
            Logic::W => 'W',
            Logic::L => 'L',
            Logic::H => 'H',
            Logic::DontCare => '-',
        }
    }

    /// The boolean interpretation: `'1'`/`'H'` are true, `'0'`/`'L'` are
    /// false, everything else is undetermined.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::One | Logic::H => Some(true),
            Logic::Zero | Logic::L => Some(false),
            _ => None,
        }
    }

    /// Converts a boolean to a forcing logic level.
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    fn strength_index(self) -> usize {
        match self {
            Logic::U => 0,
            Logic::X => 1,
            Logic::Zero => 2,
            Logic::One => 3,
            Logic::Z => 4,
            Logic::W => 5,
            Logic::L => 6,
            Logic::H => 7,
            Logic::DontCare => 8,
        }
    }

    /// The IEEE 1164 resolution of two simultaneously driven values.
    pub fn resolve(self, other: Logic) -> Logic {
        use Logic::{One as I, Zero as O, H, L, U, W, X, Z};
        // resolution_table[a][b] from the std_logic_1164 package.
        const T: [[Logic; 9]; 9] = [
            // U  X  0  1  Z  W  L  H  -
            [U, U, U, U, U, U, U, U, U], // U
            [U, X, X, X, X, X, X, X, X], // X
            [U, X, O, X, O, O, O, O, X], // 0
            [U, X, X, I, I, I, I, I, X], // 1
            [U, X, O, I, Z, W, L, H, X], // Z
            [U, X, O, I, W, W, W, W, X], // W
            [U, X, O, I, L, W, L, W, X], // L
            [U, X, O, I, H, W, W, H, X], // H
            [U, X, X, X, X, X, X, X, X], // -
        ];
        T[self.strength_index()][other.strength_index()]
    }

    /// IEEE 1164 `and`.
    pub fn and(self, other: Logic) -> Logic {
        match (self.to_x01(), other.to_x01()) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// IEEE 1164 `or`.
    pub fn or(self, other: Logic) -> Logic {
        match (self.to_x01(), other.to_x01()) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// IEEE 1164 `xor`.
    pub fn xor(self, other: Logic) -> Logic {
        match (self.to_x01(), other.to_x01()) {
            (Logic::Zero, Logic::Zero) | (Logic::One, Logic::One) => Logic::Zero,
            (Logic::Zero, Logic::One) | (Logic::One, Logic::Zero) => Logic::One,
            _ => Logic::X,
        }
    }

    /// IEEE 1164 `not`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Logic {
        match self.to_x01() {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Normalises to the `X01` subtype used by the gate operators.
    pub fn to_x01(self) -> Logic {
        match self {
            Logic::Zero | Logic::L => Logic::Zero,
            Logic::One | Logic::H => Logic::One,
            _ => Logic::X,
        }
    }

    /// The dense 4-bit code of the value used by the packed representation
    /// of [`crate::packed::PackedValue`] (standard order, `'U'` = 0).
    pub fn code(self) -> u8 {
        self.strength_index() as u8
    }

    /// The inverse of [`Logic::code`].
    ///
    /// # Panics
    ///
    /// Panics when `code` is not one of the nine standard codes (`0..=8`).
    pub fn from_code(code: u8) -> Logic {
        Logic::ALL[code as usize]
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "'{}'", self.to_char())
    }
}

/// Resolves a non-empty multiset of simultaneously driven values (the
/// resolution function `f_s` of Section 3.2).  Returns `None` on an empty
/// input.
pub fn resolve_all<I: IntoIterator<Item = Logic>>(values: I) -> Option<Logic> {
    values.into_iter().reduce(Logic::resolve)
}

/// A runtime value: a single logic level or a vector of them.
///
/// Vectors are stored in *declaration order* (leftmost element first, exactly
/// as written in a string literal), with index mapping supplied by the
/// declared type when slices are taken.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A scalar `std_logic` value.
    Logic(Logic),
    /// A vector of `std_logic` values, leftmost first.
    Vector(Vec<Logic>),
}

impl Value {
    /// A scalar value from a character.
    pub fn logic(c: char) -> Option<Value> {
        Logic::from_char(c).map(Value::Logic)
    }

    /// A vector value from its string literal form (e.g. `"0101"`).
    pub fn vector(s: &str) -> Option<Value> {
        s.chars()
            .map(Logic::from_char)
            .collect::<Option<Vec<_>>>()
            .map(Value::Vector)
    }

    /// A vector of the given width filled with `fill`.
    pub fn filled(width: usize, fill: Logic) -> Value {
        if width == 1 {
            Value::Logic(fill)
        } else {
            Value::Vector(vec![fill; width])
        }
    }

    /// A vector of the given width holding the unsigned value `n`
    /// (leftmost bit is the most significant).
    pub fn from_unsigned(n: u128, width: usize) -> Value {
        let bits: Vec<Logic> = (0..width)
            .rev()
            .map(|i| {
                if (n >> i) & 1 == 1 {
                    Logic::One
                } else {
                    Logic::Zero
                }
            })
            .collect();
        if width == 1 {
            Value::Logic(bits[0])
        } else {
            Value::Vector(bits)
        }
    }

    /// The number of logic elements.
    pub fn width(&self) -> usize {
        match self {
            Value::Logic(_) => 1,
            Value::Vector(v) => v.len(),
        }
    }

    /// The elements of the value, leftmost first.
    pub fn bits(&self) -> Vec<Logic> {
        match self {
            Value::Logic(l) => vec![*l],
            Value::Vector(v) => v.clone(),
        }
    }

    /// Rebuilds a value from bits (scalar when a single bit).
    pub fn from_bits(bits: Vec<Logic>) -> Value {
        if bits.len() == 1 {
            Value::Logic(bits[0])
        } else {
            Value::Vector(bits)
        }
    }

    /// Interprets the value as an unsigned integer if every bit is a defined
    /// zero or one.
    pub fn to_unsigned(&self) -> Option<u128> {
        let mut acc: u128 = 0;
        for b in self.bits() {
            acc = (acc << 1) | u128::from(b.to_bool()?);
        }
        Some(acc)
    }

    /// The scalar boolean interpretation (only for width-1 values).
    pub fn to_bool(&self) -> Option<bool> {
        match self {
            Value::Logic(l) => l.to_bool(),
            Value::Vector(v) if v.len() == 1 => v[0].to_bool(),
            _ => None,
        }
    }

    /// Resizes to `width`, truncating or zero-extending on the left (most
    /// significant side).
    pub fn resized(&self, width: usize) -> Value {
        let bits = self.bits();
        let mut out = if bits.len() >= width {
            bits[bits.len() - width..].to_vec()
        } else {
            let mut v = vec![Logic::Zero; width - bits.len()];
            v.extend(bits);
            v
        };
        if out.is_empty() {
            out.push(Logic::Zero);
        }
        Value::from_bits(out)
    }

    /// The string-literal form of the value (without quotes).
    pub fn to_literal(&self) -> String {
        self.bits().iter().map(|b| b.to_char()).collect()
    }

    /// Element-wise resolution of two values of the same width.
    pub fn resolve_with(&self, other: &Value) -> Value {
        let (a, b) = (self.bits(), other.bits());
        if a.len() != b.len() {
            // Mismatched drivers resolve to unknowns of the larger width.
            return Value::filled(a.len().max(b.len()), Logic::X);
        }
        Value::from_bits(a.iter().zip(&b).map(|(x, y)| x.resolve(*y)).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Logic(l) => write!(f, "{l}"),
            Value::Vector(_) => write!(f, "\"{}\"", self.to_literal()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_roundtrip() {
        for l in Logic::ALL {
            assert_eq!(Logic::from_char(l.to_char()), Some(l));
        }
        assert_eq!(Logic::from_char('q'), None);
    }

    #[test]
    fn resolution_table_properties() {
        // Commutative.
        for a in Logic::ALL {
            for b in Logic::ALL {
                assert_eq!(a.resolve(b), b.resolve(a));
            }
        }
        // 'U' dominates, 'Z' is the identity-ish weak value.
        assert_eq!(Logic::U.resolve(Logic::One), Logic::U);
        assert_eq!(Logic::Z.resolve(Logic::One), Logic::One);
        assert_eq!(Logic::Zero.resolve(Logic::One), Logic::X);
        assert_eq!(Logic::L.resolve(Logic::H), Logic::W);
        assert_eq!(
            resolve_all([Logic::Z, Logic::Z, Logic::One]),
            Some(Logic::One)
        );
        assert_eq!(resolve_all(std::iter::empty::<Logic>()), None);
    }

    #[test]
    fn gate_operations() {
        assert_eq!(Logic::One.and(Logic::H), Logic::One);
        assert_eq!(Logic::Zero.and(Logic::U), Logic::Zero);
        assert_eq!(Logic::One.or(Logic::U), Logic::One);
        assert_eq!(Logic::One.xor(Logic::One), Logic::Zero);
        assert_eq!(Logic::One.xor(Logic::Zero), Logic::One);
        assert_eq!(Logic::X.xor(Logic::One), Logic::X);
        assert_eq!(Logic::L.not(), Logic::One);
        assert_eq!(Logic::U.not(), Logic::X);
    }

    #[test]
    fn value_constructors_and_conversions() {
        let v = Value::vector("0101").unwrap();
        assert_eq!(v.width(), 4);
        assert_eq!(v.to_unsigned(), Some(5));
        assert_eq!(Value::from_unsigned(5, 4), v);
        assert_eq!(v.to_literal(), "0101");
        assert_eq!(Value::logic('1').unwrap().to_bool(), Some(true));
        assert_eq!(Value::logic('Z').unwrap().to_bool(), None);
        assert_eq!(Value::filled(3, Logic::U).to_literal(), "UUU");
        assert!(Value::vector("01q").is_none());
    }

    #[test]
    fn resized_truncates_and_extends() {
        let v = Value::vector("0101").unwrap();
        assert_eq!(v.resized(2).to_literal(), "01");
        assert_eq!(v.resized(6).to_literal(), "000101");
        assert_eq!(v.resized(4), v);
        assert_eq!(Value::Logic(Logic::One).resized(4).to_literal(), "0001");
    }

    #[test]
    fn elementwise_resolution() {
        let a = Value::vector("01Z").unwrap();
        let b = Value::vector("Z1H").unwrap();
        assert_eq!(a.resolve_with(&b).to_literal(), "01H");
        // Mismatched widths degrade to unknowns.
        assert_eq!(
            a.resolve_with(&Value::logic('1').unwrap()).to_literal(),
            "XXX"
        );
    }

    #[test]
    fn unsigned_requires_defined_bits() {
        assert_eq!(Value::vector("0X1").unwrap().to_unsigned(), None);
        assert_eq!(Value::vector("0H1").unwrap().to_unsigned(), Some(3));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::logic('1').unwrap().to_string(), "'1'");
        assert_eq!(Value::vector("10").unwrap().to_string(), "\"10\"");
    }
}
