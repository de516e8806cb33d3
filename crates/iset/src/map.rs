//! Affine maps between tuple spaces: `[i,j] → [i+1, 2j]`.
//!
//! A map carries a reference's subscripts from a loop nest's iteration
//! space to the array's element space: what a processor accesses is the
//! image of its iteration set.

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
    /// A union of parameter-free boxes through outputs that are constants
    /// or `±x + c` of distinct inputs is mapped on its bounds (the box
    /// kernel). Otherwise the image is built by conjoining `out_d = f_d(x)`
    /// constraints and projecting the input variables out, the input
    /// variables first renamed to fresh names to avoid capture when spaces
    /// overlap.
    pub fn apply(&self, s: &Set) -> Set {
        assert_eq!(
            s.space(),
            self.in_space,
            "map applied to set of wrong space"
        );
        if let Some(image) = crate::boxes::image(self, s) {
            return image;
        }
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
    fn shift_map_image() {
        // f(j) = j - 1 over {1..5} → image {0..4}
        let m = Map::new(&["j"], &["j"], vec![var("j") - 1]);
        let img = m.apply(&Set::rect(&["j"], &[1], &[5]));
        assert!(img.set_eq(&Set::rect(&["j"], &[0], &[4])));
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
