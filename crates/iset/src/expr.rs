//! Sparse integer-coefficient linear expressions over named variables.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

/// A linear expression `Σ cᵢ·vᵢ + c0` with integer coefficients over named
/// variables. Variables with coefficient zero are never stored.
///
/// `LinExpr` is the atom everything else in this crate is built from:
/// constraints, polyhedra, affine maps and loop bounds are all phrased in
/// terms of it.
/// Combining expressions shares names (`Arc`), never copies them.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct LinExpr {
    /// `(variable, coefficient)` sorted by name, zero-free, names unique.
    terms: Vec<(Arc<str>, i64)>,
    /// Constant term.
    constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn cst(c: i64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// A single variable with coefficient 1.
    pub fn var(name: &str) -> Self {
        LinExpr {
            terms: vec![(Arc::from(name), 1)],
            constant: 0,
        }
    }

    /// `coeff`·`name` + `constant`, sharing `name`.
    pub(crate) fn unit(name: &Arc<str>, coeff: i64, constant: i64) -> Self {
        LinExpr {
            terms: vec![(name.clone(), coeff)],
            constant,
        }
    }

    /// A single variable with an explicit coefficient.
    pub fn term(name: &str, coeff: i64) -> Self {
        let mut e = LinExpr::zero();
        e.add_term(name, coeff);
        e
    }

    /// Build from `(var, coeff)` pairs plus a constant.
    pub fn from_terms<'a, I: IntoIterator<Item = (&'a str, i64)>>(iter: I, constant: i64) -> Self {
        let mut e = LinExpr::cst(constant);
        for (v, c) in iter {
            e.add_term(v, c);
        }
        e
    }

    /// Position of `name` in the sorted terms, or where it would go.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.terms.binary_search_by(|(v, _)| (**v).cmp(name))
    }

    /// Coefficient of `name` (0 if absent).
    #[inline]
    pub fn coeff(&self, name: &str) -> i64 {
        self.find(name).map_or(0, |i| self.terms[i].1)
    }

    /// The constant term.
    #[inline]
    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// Mutate the constant term.
    pub fn set_constant(&mut self, c: i64) {
        self.constant = c;
    }

    /// Add `coeff`·`name` into the expression.
    pub fn add_term(&mut self, name: &str, coeff: i64) {
        self.add_shared(name, coeff, || Arc::from(name));
    }

    /// `add_term`, taking the shared name from `sym` only if it is new.
    fn add_shared(&mut self, name: &str, coeff: i64, sym: impl FnOnce() -> Arc<str>) {
        if coeff == 0 {
            return;
        }
        match self.find(name) {
            Ok(i) => {
                self.terms[i].1 += coeff;
                if self.terms[i].1 == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (sym(), coeff)),
        }
    }

    /// True iff the expression is a constant (no variables).
    #[inline]
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate `(variable, coefficient)` pairs in sorted order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.terms.iter().map(|(v, c)| (&**v, *c))
    }

    /// Number of variables with nonzero coefficient.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    /// True iff `name` occurs with nonzero coefficient.
    pub fn mentions(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// All mentioned variable names.
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.terms.iter().map(|(v, _)| &**v)
    }

    /// GCD of all variable coefficients (0 if constant).
    pub fn coeff_gcd(&self) -> i64 {
        self.terms.iter().fold(0i64, |g, &(_, c)| gcd(g, c.abs()))
    }

    /// `self + k·other`, sharing `other`'s names.
    pub fn add_scaled(&self, other: &LinExpr, k: i64) -> LinExpr {
        let mut out = self.clone();
        if k != 0 {
            for (v, c) in &other.terms {
                out.add_shared(v, c * k, || v.clone());
            }
            out.constant += other.constant * k;
        }
        out
    }

    /// Scale every coefficient and the constant by `k`.
    pub fn scaled(&self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        let mut out = self.clone();
        for (_, c) in &mut out.terms {
            *c *= k;
        }
        out.constant *= k;
        out
    }

    /// Divide exactly by `k` (panics if any coefficient is not divisible).
    pub fn div_exact(&self, k: i64) -> LinExpr {
        assert!(k != 0, "division by zero");
        let mut out = self.clone();
        for (_, c) in &mut out.terms {
            assert!(*c % k == 0, "non-exact division of {self} by {k}");
            *c /= k;
        }
        assert!(out.constant % k == 0, "non-exact division of {self} by {k}");
        out.constant /= k;
        out
    }

    /// Substitute `name := replacement` (replacement may mention other vars).
    pub fn substitute(&self, name: &str, replacement: &LinExpr) -> LinExpr {
        let Ok(i) = self.find(name) else {
            return self.clone();
        };
        let mut out = self.clone();
        let (_, c) = out.terms.remove(i);
        out.add_scaled(replacement, c)
    }

    /// Rename a variable (no-op if absent; panics if target already present).
    pub fn rename(&self, from: &str, to: &str) -> LinExpr {
        let Ok(i) = self.find(from) else {
            return self.clone();
        };
        assert!(
            !self.mentions(to),
            "rename target {to} already present in {self}"
        );
        let mut out = self.clone();
        let (_, c) = out.terms.remove(i);
        out.add_term(to, c);
        out
    }

    /// Evaluate given a full assignment; `None` if a variable is unbound.
    pub fn eval(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        let mut acc = self.constant;
        for (v, c) in self.terms() {
            acc += c * env(v)?;
        }
        Some(acc)
    }
}

/// Euclidean GCD on non-negative inputs (gcd(0, x) = x).
pub fn gcd(mut a: i64, mut b: i64) -> i64 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        self.add_scaled(&rhs, 1)
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self.add_scaled(&rhs, -1)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scaled(-1)
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: i64) -> LinExpr {
        self.scaled(k)
    }
}

impl Add<i64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, k: i64) -> LinExpr {
        self.constant += k;
        self
    }
}

impl Sub<i64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, k: i64) -> LinExpr {
        self.constant -= k;
        self
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{c}{v}")?,
                }
                first = false;
            } else {
                let sign = if c < 0 { "-" } else { "+" };
                let a = c.abs();
                if a == 1 {
                    write!(f, " {sign} {v}")?;
                } else {
                    write!(f, " {sign} {a}{v}")?;
                }
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant != 0 {
            let sign = if self.constant < 0 { "-" } else { "+" };
            write!(f, " {sign} {}", self.constant.abs())?;
        }
        Ok(())
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_display() {
        let e = LinExpr::var("i").add_scaled(&LinExpr::var("j"), -2) + 5;
        assert_eq!(e.to_string(), "i - 2j + 5");
        assert_eq!(e.coeff("i"), 1);
        assert_eq!(e.coeff("j"), -2);
        assert_eq!(e.coeff("k"), 0);
        assert_eq!(e.constant(), 5);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let e = LinExpr::var("i") - LinExpr::var("i");
        assert!(e.is_constant());
        assert_eq!(e, LinExpr::zero());
        let mut f = LinExpr::var("x");
        f.add_term("x", -1);
        assert_eq!(f.num_vars(), 0);
    }

    #[test]
    fn substitute_replaces_and_scales() {
        // i + 2j with j := k - 1  =>  i + 2k - 2
        let e = LinExpr::var("i").add_scaled(&LinExpr::var("j"), 2);
        let r = LinExpr::var("k") - 1;
        let s = e.substitute("j", &r);
        assert_eq!(s.to_string(), "i + 2k - 2");
        // substituting an absent variable is identity
        assert_eq!(s.substitute("zz", &LinExpr::cst(9)), s);
    }

    #[test]
    fn rename_moves_coefficient() {
        let e = LinExpr::term("i", 3) + 1;
        assert_eq!(e.rename("i", "i0").to_string(), "3i0 + 1");
        assert_eq!(e.rename("nope", "x"), e);
    }

    #[test]
    fn arithmetic_ops() {
        let a = LinExpr::var("x") + 1;
        let b = LinExpr::var("y") - 4;
        assert_eq!((a.clone() + b.clone()).to_string(), "x + y - 3");
        assert_eq!((a.clone() - b).to_string(), "x - y + 5");
        assert_eq!((-a.clone()).to_string(), "-x - 1");
        assert_eq!((a * 3).to_string(), "3x + 3");
    }

    #[test]
    fn eval_full_and_partial() {
        let e = LinExpr::from_terms([("i", 2), ("N", 1)], -3);
        let env = |v: &str| match v {
            "i" => Some(4),
            "N" => Some(10),
            _ => None,
        };
        assert_eq!(e.eval(&env), Some(2 * 4 + 10 - 3));
        let env2 = |v: &str| if v == "i" { Some(1) } else { None };
        assert_eq!(e.eval(&env2), None);
    }

    #[test]
    fn gcd_and_division() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(-4, 6), 2);
        let e = LinExpr::from_terms([("i", 4), ("j", -6)], 8);
        assert_eq!(e.coeff_gcd(), 2);
        assert_eq!(e.div_exact(2).to_string(), "2i - 3j + 4");
    }

    #[test]
    #[should_panic(expected = "non-exact division")]
    fn div_exact_panics_on_remainder() {
        let e = LinExpr::var("i") + 1;
        let _ = e.div_exact(2);
    }
}
