//! Affine subscript extraction: turn subscript [`Expr`]s into
//! [`dhpf_iset::LinExpr`]s over loop induction variables and symbolic
//! parameters.
//!
//! A subscript is *affine* if it is a sum of integer-scaled scalar
//! variables plus a constant. `parameter` constants are folded eagerly.
//! Non-affine subscripts (array-valued, products of variables, divisions
//! with remainders, intrinsic calls) yield `None`, and the dependence
//! analysis treats those dimensions conservatively.

use crate::ast::{BinOp, Decls, Expr, UnOp};
use dhpf_iset::LinExpr;

/// Extract the affine form of one expression, or `None`.
pub fn affine(expr: &Expr, decls: &Decls) -> Option<LinExpr> {
    match expr {
        Expr::Int(v, _) => Some(LinExpr::cst(*v)),
        Expr::Real(..) | Expr::Logical(..) => None,
        Expr::Ref(r) => {
            if !r.subs.is_empty() {
                return None; // array element or function call
            }
            if let Some(v) = decls.params.get(&r.name) {
                return Some(LinExpr::cst(*v));
            }
            Some(LinExpr::var(&r.name))
        }
        Expr::Bin(op, a, b, _) => {
            let ea = affine(a, decls);
            let eb = affine(b, decls);
            match op {
                BinOp::Add => Some(ea? + eb?),
                BinOp::Sub => Some(ea? - eb?),
                BinOp::Mul => {
                    let ea = ea?;
                    let eb = eb?;
                    if ea.is_constant() {
                        Some(eb.scaled(ea.constant()))
                    } else if eb.is_constant() {
                        Some(ea.scaled(eb.constant()))
                    } else {
                        None
                    }
                }
                BinOp::Div => {
                    let ea = ea?;
                    let eb = eb?;
                    if eb.is_constant() && eb.constant() != 0 {
                        let d = eb.constant();
                        // only exact divisions stay affine
                        let exact = ea.terms().all(|(_, c)| c % d == 0) && ea.constant() % d == 0;
                        exact.then(|| ea.div_exact(d))
                    } else {
                        None
                    }
                }
                BinOp::Pow => {
                    let ea = ea?;
                    let eb = eb?;
                    if ea.is_constant() && eb.is_constant() && eb.constant() >= 0 {
                        let v = ea.constant().checked_pow(eb.constant().try_into().ok()?)?;
                        Some(LinExpr::cst(v))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        Expr::Un(UnOp::Neg, a, _) => Some(-affine(a, decls)?),
        Expr::Un(UnOp::Not, ..) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::StmtKind;

    /// The affine form of each subscript of the first assignment's LHS.
    fn lhs_subs(src: &str) -> Vec<Option<LinExpr>> {
        let p = parse_program(src).expect("parse");
        let u = &p.units[0];
        let mut found = None;
        u.for_each_stmt(&mut |s| {
            if let (None, StmtKind::Assign { lhs, .. }) = (&found, &s.kind) {
                found = Some(lhs.subs.iter().map(|e| affine(e, &u.decls)).collect());
            }
        });
        found.expect("no assignment")
    }

    #[test]
    fn simple_affine_subscripts() {
        let subs = lhs_subs(
            "      program t\n      parameter (n=8)\n      a(i+1, 2*j - 3, n) = 0.0\n      end\n",
        );
        assert_eq!(subs[0].as_ref().unwrap().to_string(), "i + 1");
        assert_eq!(subs[1].as_ref().unwrap().to_string(), "2j - 3");
        assert_eq!(subs[2].as_ref().unwrap().to_string(), "8");
    }

    #[test]
    fn non_affine_detected() {
        let subs = lhs_subs("      program t\n      a(i*j, b(i), i/2) = 0.0\n      end\n");
        assert!(subs[0].is_none(), "i*j is not affine");
        assert!(subs[1].is_none(), "b(i) is not affine");
        assert!(subs[2].is_none(), "i/2 is not affine (non-exact)");
    }

    #[test]
    fn exact_division_is_affine() {
        let subs = lhs_subs("      program t\n      a((4*i + 8)/2) = 0.0\n      end\n");
        assert_eq!(subs[0].as_ref().unwrap().to_string(), "2i + 4");
    }

    #[test]
    fn negation_and_symbolic_param() {
        let subs = lhs_subs("      program t\n      a(n - i) = 0.0\n      end\n");
        // n is not a parameter here: stays symbolic
        assert_eq!(subs[0].as_ref().unwrap().to_string(), "-i + n");
    }

    #[test]
    fn constant_power_folds() {
        let subs = lhs_subs("      program t\n      a(2**3 + i) = 0.0\n      end\n");
        assert_eq!(subs[0].as_ref().unwrap().to_string(), "i + 8");
    }
}
