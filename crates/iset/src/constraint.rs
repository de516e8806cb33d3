//! Affine constraints: `expr ≥ 0` and `expr = 0`, with integer tightening.

use crate::expr::LinExpr;
use std::fmt;

/// Constraint kind.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Kind {
    /// `expr ≥ 0`
    Ge,
    /// `expr = 0`
    Eq,
}

/// An affine constraint over named integer variables.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Constraint {
    pub expr: LinExpr,
    pub kind: Kind,
}

/// Result of normalizing a constraint.
#[derive(Debug, PartialEq, Eq)]
pub enum Normalized {
    /// Constraint is trivially true (e.g. `3 ≥ 0`); drop it.
    True,
    /// Constraint is trivially false (e.g. `-1 ≥ 0`, or `2x + 1 = 0`).
    False,
    /// Keep the (tightened) constraint.
    Keep(Constraint),
}

impl Constraint {
    /// `expr ≥ 0`.
    pub fn ge0(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: Kind::Ge,
        }
    }

    /// `expr = 0`.
    pub fn eq0(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: Kind::Eq,
        }
    }

    /// `lhs ≥ rhs`.
    pub fn ge(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::ge0(lhs - rhs)
    }

    /// `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::ge0(rhs - lhs)
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: LinExpr, rhs: LinExpr) -> Self {
        Constraint::eq0(lhs - rhs)
    }

    /// Normalize: detect trivial truth/falsity and tighten by the
    /// coefficient GCD. For `g·x + c ≥ 0` the tightened form divides
    /// coefficients by `g` and *floors* the constant (`⌊c/g⌋`), which is
    /// exact for integer solutions. For equalities, `g ∤ c` means no
    /// integer solution exists.
    pub fn normalize(self) -> Normalized {
        if self.expr.is_constant() {
            let c = self.expr.constant();
            let ok = match self.kind {
                Kind::Ge => c >= 0,
                Kind::Eq => c == 0,
            };
            return if ok {
                Normalized::True
            } else {
                Normalized::False
            };
        }
        let g = self.expr.coeff_gcd();
        debug_assert!(g > 0);
        if g == 1 {
            return Normalized::Keep(self);
        }
        let c = self.expr.constant();
        match self.kind {
            Kind::Ge => {
                let mut e = self.expr.clone();
                e.set_constant(0);
                let mut e = e.div_exact(g);
                e.set_constant(c.div_euclid(g));
                Normalized::Keep(Constraint::ge0(e))
            }
            Kind::Eq => {
                if c.rem_euclid(g) != 0 {
                    Normalized::False
                } else {
                    Normalized::Keep(Constraint::eq0(self.expr.div_exact(g)))
                }
            }
        }
    }

    /// Cheap syntactic falsity test: a constant constraint that can never
    /// hold. For constraints already in normalized form — the only kind a
    /// [`crate::Polyhedron`] stores, besides the canonical `-1 ≥ 0` empty
    /// marker — this is equivalent to `normalize()` returning
    /// [`Normalized::False`], without re-running GCD tightening.
    pub fn is_trivially_false(&self) -> bool {
        self.expr.is_constant()
            && match self.kind {
                Kind::Ge => self.expr.constant() < 0,
                Kind::Eq => self.expr.constant() != 0,
            }
    }

    /// Substitute a variable throughout.
    pub fn substitute(&self, name: &str, replacement: &LinExpr) -> Constraint {
        Constraint {
            expr: self.expr.substitute(name, replacement),
            kind: self.kind,
        }
    }

    /// Rename a variable throughout.
    pub fn rename(&self, from: &str, to: &str) -> Constraint {
        Constraint {
            expr: self.expr.rename(from, to),
            kind: self.kind,
        }
    }

    /// The integer negation(s) of this constraint, as a disjunction.
    ///
    /// `¬(e ≥ 0)` is `-e - 1 ≥ 0`; `¬(e = 0)` is `e - 1 ≥ 0 ∨ -e - 1 ≥ 0`.
    /// Exact over the integers (used for set difference).
    pub fn negate(&self) -> Vec<Constraint> {
        match self.kind {
            Kind::Ge => vec![Constraint::ge0(-self.expr.clone() - 1)],
            Kind::Eq => vec![
                Constraint::ge0(self.expr.clone() - 1),
                Constraint::ge0(-self.expr.clone() - 1),
            ],
        }
    }

    /// True iff the constraint is satisfied under a full assignment.
    pub fn holds(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<bool> {
        let v = self.expr.eval(env)?;
        Some(match self.kind {
            Kind::Ge => v >= 0,
            Kind::Eq => v == 0,
        })
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            Kind::Ge => write!(f, "{} >= 0", self.expr),
            Kind::Eq => write!(f, "{} = 0", self.expr),
        }
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Tighten `a·x ≥ e` style pair combination used by Fourier–Motzkin:
/// given lower `l`: `a·x - f ≥ 0` (coeff of x is `a > 0`) and upper `u`:
/// `-b·x + g ≥ 0` (coeff of x is `-b`, `b > 0`), the rational shadow is
/// `a·g - b·f ≥ 0`.
pub(crate) fn fm_combine(lower: &Constraint, upper: &Constraint, var: &str) -> Constraint {
    let a = lower.expr.coeff(var);
    let b = -upper.expr.coeff(var);
    debug_assert!(a > 0 && b > 0, "fm_combine expects lower/upper on {var}");
    // lower: a·x + f ≥ 0  (f = lower.expr - a·x), i.e. x ≥ -f/a
    // upper: -b·x + g ≥ 0 (g = upper.expr + b·x), i.e. x ≤ g/b
    // combine: b·f + a·g ≥ 0  where we add scaled exprs and cancel x.
    // The later normalize() pass re-tightens by the GCD.
    let e = lower.expr.scaled(b).add_scaled(&upper.expr, a);
    debug_assert_eq!(e.coeff(var), 0);
    Constraint::ge0(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var;

    #[test]
    fn normalize_trivial() {
        assert_eq!(
            Constraint::ge0(LinExpr::cst(3)).normalize(),
            Normalized::True
        );
        assert_eq!(
            Constraint::ge0(LinExpr::cst(-1)).normalize(),
            Normalized::False
        );
        assert_eq!(
            Constraint::eq0(LinExpr::cst(0)).normalize(),
            Normalized::True
        );
        assert_eq!(
            Constraint::eq0(LinExpr::cst(2)).normalize(),
            Normalized::False
        );
    }

    #[test]
    fn normalize_tightens_ge() {
        // 2x - 3 >= 0  =>  x - 2 >= 0  (x >= 1.5 tightens to x >= 2)
        let c = Constraint::ge0(var("x") * 2 - 3);
        match c.normalize() {
            Normalized::Keep(c) => assert_eq!(c.to_string(), "x - 2 >= 0"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn normalize_eq_divisibility() {
        // 2x + 1 = 0 has no integer solution
        let c = Constraint::eq0(var("x") * 2 + 1);
        assert_eq!(c.normalize(), Normalized::False);
        // 2x + 4 = 0 => x + 2 = 0
        let c = Constraint::eq0(var("x") * 2 + 4);
        match c.normalize() {
            Normalized::Keep(c) => assert_eq!(c.to_string(), "x + 2 = 0"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negation_is_exact() {
        // ¬(x - 1 ≥ 0) = (-x ≥ 0) i.e. -x + 1 - 1 ≥ 0
        let c = Constraint::ge0(var("x") - 1);
        let n = c.negate();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].to_string(), "-x >= 0");
        let e = Constraint::eq0(var("x"));
        let n = e.negate();
        assert_eq!(n.len(), 2);
        assert_eq!(n[0].to_string(), "x - 1 >= 0");
        assert_eq!(n[1].to_string(), "-x - 1 >= 0");
    }

    #[test]
    fn fm_combine_cancels() {
        // lower: 2x - j >= 0 ; upper: -3x + N >= 0  =>  combine: 2N - 3j >= 0
        let lo = Constraint::ge0(var("x") * 2 - var("j"));
        let up = Constraint::ge0(var("N") - var("x") * 3);
        let c = fm_combine(&lo, &up, "x");
        assert_eq!(c.expr.coeff("x"), 0);
        assert_eq!(c.to_string(), "2N - 3j >= 0");
    }

    #[test]
    fn holds_evaluates() {
        let c = Constraint::ge(var("i"), var("j"));
        let env = |v: &str| match v {
            "i" => Some(3),
            "j" => Some(3),
            _ => None,
        };
        assert_eq!(c.holds(&env), Some(true));
    }
}
