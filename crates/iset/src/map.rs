//! Affine maps between tuple spaces: `[i,j] → [i+1, 2j]`.
//!
//! Maps drive the computation-partition translation of §4 of the paper:
//! translating a CP from a use site to a definition site applies the
//! *inverse* of the 1-1 linear subscript mapping, and applying a CP to a
//! data distribution is an image computation.

use crate::constraint::Constraint;
use crate::expr::LinExpr;
use crate::poly::Polyhedron;
use crate::set::Set;
use std::fmt;

/// An affine map `in_space → out_space`, each output being a [`LinExpr`]
/// over the input variables and parameters.
#[derive(Clone, PartialEq, Eq)]
pub struct Map {
    in_space: Vec<String>,
    out_space: Vec<String>,
    outputs: Vec<LinExpr>,
}

impl Map {
    /// Build a map. `outputs[d]` defines `out_space[d]`.
    pub fn new<S: AsRef<str>, T: AsRef<str>>(
        in_space: &[S],
        out_space: &[T],
        outputs: Vec<LinExpr>,
    ) -> Self {
        assert_eq!(
            out_space.len(),
            outputs.len(),
            "one output expr per out var"
        );
        Map {
            in_space: in_space.iter().map(|s| s.as_ref().to_string()).collect(),
            out_space: out_space.iter().map(|s| s.as_ref().to_string()).collect(),
            outputs,
        }
    }

    pub fn in_space(&self) -> &[String] {
        &self.in_space
    }

    pub fn out_space(&self) -> &[String] {
        &self.out_space
    }

    pub fn outputs(&self) -> &[LinExpr] {
        &self.outputs
    }

    /// Image of a set under the map: `{ y : ∃ x ∈ s, y = f(x) }`.
    ///
    /// Implemented by conjoining `out_d = f_d(x)` constraints and projecting
    /// the input variables out. Input variables are first renamed to fresh
    /// names to avoid capture when spaces overlap.
    pub fn apply(&self, s: &Set) -> Set {
        assert_eq!(
            s.space(),
            self.in_space,
            "map applied to set of wrong space"
        );
        // fresh names for inputs
        let fresh: Vec<String> = self.in_space.iter().map(|v| format!("{v}__in")).collect();
        let mut renamed = s.clone();
        for (v, f) in self.in_space.iter().zip(&fresh) {
            renamed = renamed.rename_dim(v, f);
        }
        // the renamed output expressions don't depend on the disjunct;
        // compute them once rather than per polyhedron
        let rhs: Vec<LinExpr> = self
            .outputs
            .iter()
            .map(|e| {
                let mut rhs = e.clone();
                for (v, f) in self.in_space.iter().zip(&fresh) {
                    rhs = rhs.substitute(v, &LinExpr::var(f));
                }
                rhs
            })
            .collect();
        let mut out = Set::empty(&self.out_space);
        for poly in renamed.polys() {
            let mut p = poly.clone();
            for (d, ov) in self.out_space.iter().enumerate() {
                p.add(Constraint::eq(LinExpr::var(ov), rhs[d].clone()));
            }
            for f in &fresh {
                p = p.eliminate(f);
            }
            if !p.is_empty() {
                out = out.union(&Set::from_poly(&self.out_space, p));
            }
        }
        out
    }

    /// Preimage of a set: `{ x : f(x) ∈ s }` — substitution, exact.
    pub fn preimage(&self, s: &Set) -> Set {
        assert_eq!(s.space(), self.out_space, "preimage of set of wrong space");
        // Rename out vars to fresh, substitute fresh := f_d(x), land in in_space.
        let mut out = Set::empty(&self.in_space);
        for poly in s.polys() {
            let mut p = poly.clone();
            // two-phase rename to avoid capture
            let fresh: Vec<String> = self.out_space.iter().map(|v| format!("{v}__out")).collect();
            for (v, f) in self.out_space.iter().zip(&fresh) {
                p = p.rename(v, f);
            }
            for (f, expr) in fresh.iter().zip(&self.outputs) {
                p = p.substitute(f, expr);
            }
            if !p.is_trivially_empty() {
                out = out.union(&Set::from_poly(&self.in_space, p));
            }
        }
        out
    }

    /// Invert a 1-1 map whose outputs each have the form `±v + e` for a
    /// distinct input variable `v` (unit coefficient) where `e` mentions no
    /// input variable. Returns `None` otherwise.
    ///
    /// This is exactly the invertibility condition §4.1 of the paper uses
    /// for translating CPs from uses to definitions ("establish a
    /// one-to-one linear mapping … if it is not possible … this step is
    /// simply skipped").
    pub fn inverse(&self) -> Option<Map> {
        if self.in_space.len() != self.out_space.len() {
            return None;
        }
        let mut inv_outputs: Vec<Option<LinExpr>> = vec![None; self.in_space.len()];
        let mut used = vec![false; self.in_space.len()];
        for (d, expr) in self.outputs.iter().enumerate() {
            // find the single input var with nonzero coeff
            let mut in_var: Option<(usize, i64)> = None;
            for (v, c) in expr.terms() {
                if let Some(pos) = self.in_space.iter().position(|iv| iv == v) {
                    if in_var.is_some() {
                        return None; // more than one input var in this output
                    }
                    in_var = Some((pos, c));
                }
            }
            let (pos, coeff) = in_var?;
            if coeff.abs() != 1 || used[pos] {
                return None;
            }
            used[pos] = true;
            // out_d = a·x_pos + e  =>  x_pos = a·(out_d - e)
            let mut e = expr.clone();
            e.add_term(&self.in_space[pos], -coeff);
            let rhs = (LinExpr::var(&self.out_space[d]) - e).scaled(coeff);
            inv_outputs[pos] = Some(rhs);
        }
        if !used.iter().all(|&u| u) {
            return None;
        }
        Some(Map::new(
            &self.out_space,
            &self.in_space,
            inv_outputs.into_iter().map(|o| o.unwrap()).collect(),
        ))
    }

    /// Compose: `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &Map) -> Map {
        assert_eq!(other.out_space, self.in_space, "compose space mismatch");
        let outputs = self
            .outputs
            .iter()
            .map(|e| {
                let mut acc = e.clone();
                // substitute each of self's input vars by other's output expr;
                // rename first to avoid capture
                let fresh: Vec<String> = self.in_space.iter().map(|v| format!("{v}__c")).collect();
                for (v, f) in self.in_space.iter().zip(&fresh) {
                    acc = acc.rename(v, f);
                }
                for (f, oexpr) in fresh.iter().zip(&other.outputs) {
                    acc = acc.substitute(f, oexpr);
                }
                acc
            })
            .collect();
        Map::new(&other.in_space, &self.out_space, outputs)
    }

    /// Evaluate at a concrete point (parameters via `params`).
    pub fn eval(&self, point: &[i64], params: &dyn Fn(&str) -> Option<i64>) -> Option<Vec<i64>> {
        assert_eq!(point.len(), self.in_space.len());
        let env = |v: &str| {
            if let Some(pos) = self.in_space.iter().position(|s| s == v) {
                Some(point[pos])
            } else {
                params(v)
            }
        };
        self.outputs.iter().map(|e| e.eval(&env)).collect()
    }

    /// Graph of the map restricted to a domain, as a set over
    /// `in_space ++ out_space`.
    pub fn graph(&self, domain: &Set) -> Set {
        assert_eq!(domain.space(), self.in_space);
        let mut space: Vec<String> = self.in_space.clone();
        space.extend(self.out_space.iter().cloned());
        assert_eq!(
            space
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            space.len(),
            "graph requires disjoint in/out spaces"
        );
        let mut out = Set::empty(&space);
        for poly in domain.polys() {
            let mut p: Polyhedron = poly.clone();
            for (d, ov) in self.out_space.iter().enumerate() {
                p.add(Constraint::eq(LinExpr::var(ov), self.outputs[d].clone()));
            }
            if !p.is_trivially_empty() {
                out = out.union(&Set::from_poly(&space, p));
            }
        }
        out
    }
}

impl fmt::Display for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{[{}] -> [{}]}}",
            self.in_space.join(","),
            self.outputs
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var;

    fn no_params(_: &str) -> Option<i64> {
        None
    }

    #[test]
    fn identity_apply() {
        let s = Set::rect(&["i"], &[1], &[3]);
        let m = Map::new(&["i"], &["i"], vec![var("i")]);
        assert!(m.apply(&s).set_eq(&s));
    }

    #[test]
    fn shift_map_image_and_preimage() {
        // f(j) = j - 1 over {1..5} → image {0..4}
        let m = Map::new(&["j"], &["j"], vec![var("j") - 1]);
        let s = Set::rect(&["j"], &[1], &[5]);
        let img = m.apply(&s);
        assert!(img.set_eq(&Set::rect(&["j"], &[0], &[4])));
        let pre = m.preimage(&Set::rect(&["j"], &[0], &[4]));
        assert!(pre.set_eq(&s));
    }

    #[test]
    fn inverse_of_unit_map() {
        // The paper's lhsy example: [j]def -> [j-1]use, inverse maps back.
        let m = Map::new(&["j"], &["u"], vec![var("j") - 1]);
        let inv = m.inverse().expect("invertible");
        assert_eq!(inv.eval(&[4], &no_params), Some(vec![5]));
        let roundtrip = inv.compose(&m);
        assert_eq!(roundtrip.eval(&[7], &no_params), Some(vec![7]));
    }

    #[test]
    fn inverse_rejects_non_unit_and_aliased() {
        let m = Map::new(&["j"], &["u"], vec![var("j") * 2]);
        assert!(m.inverse().is_none());
        let m = Map::new(
            &["i", "j"],
            &["a", "b"],
            vec![var("i") + var("j"), var("j")],
        );
        assert!(
            m.inverse().is_none(),
            "first output mentions two input vars"
        );
        // constant output not invertible
        let m = Map::new(&["i"], &["a"], vec![crate::cst(3)]);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn inverse_negative_unit() {
        // out = -i + N  =>  i = N - out
        let m = Map::new(&["i"], &["o"], vec![var("N") - var("i")]);
        let inv = m.inverse().unwrap();
        let params = |v: &str| if v == "N" { Some(10) } else { None };
        assert_eq!(inv.eval(&[3], &params), Some(vec![7]));
    }

    #[test]
    fn multidim_permutation_inverse() {
        let m = Map::new(&["i", "j"], &["a", "b"], vec![var("j") + 2, var("i") - 1]);
        let inv = m.inverse().unwrap();
        assert_eq!(m.eval(&[10, 20], &no_params), Some(vec![22, 9]));
        assert_eq!(inv.eval(&[22, 9], &no_params), Some(vec![10, 20]));
    }

    #[test]
    fn compose_order() {
        let f = Map::new(&["x"], &["y"], vec![var("x") + 1]); // y = x+1
        let g = Map::new(&["y"], &["z"], vec![var("y") * 2]); // z = 2y
        let gf = g.compose(&f); // z = 2(x+1)
        assert_eq!(gf.eval(&[3], &no_params), Some(vec![8]));
    }

    #[test]
    fn apply_handles_overlapping_space_names() {
        // in and out spaces share the name "i": image of {1..3} under i→i+1
        let m = Map::new(&["i"], &["i"], vec![var("i") + 1]);
        let img = m.apply(&Set::rect(&["i"], &[1], &[3]));
        assert!(img.set_eq(&Set::rect(&["i"], &[2], &[4])));
    }

    #[test]
    fn graph_is_relation() {
        let m = Map::new(&["i"], &["o"], vec![var("i") + 1]);
        let g = m.graph(&Set::rect(&["i"], &[0], &[2]));
        assert!(g.contains(&[0, 1], &no_params));
        assert!(g.contains(&[2, 3], &no_params));
        assert!(!g.contains(&[1, 3], &no_params));
    }
}
