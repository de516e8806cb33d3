//! Sets of symbolic integer tuples: unions of polyhedra over a named
//! tuple space with free symbolic parameters.

use crate::boxes;
use crate::constraint::Constraint;
use crate::expr::LinExpr;
use crate::intern;
use crate::poly::Polyhedron;
use std::collections::BTreeSet;
use std::fmt;

/// A set of integer tuples `{ [v1, …, vn] : constraints }`.
///
/// Variables mentioned in constraints but not in the space are *symbolic
/// parameters* (e.g. problem size `N`, processor id `myid`): the set is a
/// family indexed by them, and all operations are performed symbolically.
#[derive(Clone, PartialEq, Eq)]
pub struct Set {
    space: Vec<String>,
    polys: Vec<Polyhedron>,
}

impl Set {
    /// The empty set over the given space.
    pub fn empty<S: AsRef<str>>(space: &[S]) -> Self {
        Set {
            space: space.iter().map(|s| s.as_ref().to_string()).collect(),
            polys: vec![],
        }
    }

    /// The universe over the given space.
    pub fn universe<S: AsRef<str>>(space: &[S]) -> Self {
        Set {
            space: space.iter().map(|s| s.as_ref().to_string()).collect(),
            polys: vec![Polyhedron::universe()],
        }
    }

    /// A single-polyhedron set.
    pub fn from_poly<S: AsRef<str>>(space: &[S], poly: Polyhedron) -> Self {
        let mut s = Set::empty(space);
        s.push(poly);
        s
    }

    /// Build from constraints (a single conjunction).
    pub fn from_constraints<S: AsRef<str>, I: IntoIterator<Item = Constraint>>(
        space: &[S],
        cons: I,
    ) -> Self {
        Set::from_poly(space, Polyhedron::new(cons))
    }

    /// A dense rectangular box `lo[d] ≤ v[d] ≤ hi[d]` (inclusive).
    pub fn rect<S: AsRef<str>>(space: &[S], lo: &[i64], hi: &[i64]) -> Self {
        assert_eq!(space.len(), lo.len());
        assert_eq!(space.len(), hi.len());
        let mut cons = Vec::with_capacity(2 * space.len());
        for (d, v) in space.iter().enumerate() {
            cons.push(Constraint::ge0(LinExpr::var(v.as_ref()) - lo[d]));
            cons.push(Constraint::ge0(
                LinExpr::cst(hi[d]) - LinExpr::var(v.as_ref()),
            ));
        }
        Set::from_constraints(space, cons)
    }

    /// The union of `boxes`, each the per-dimension inclusive `(lo, hi)`
    /// bounds of one disjunct in space order (`i64::MIN` / `i64::MAX` for
    /// an open end), in the box kernel's canonical form: the empty boxes
    /// dropped, each box once, in order. This is the set every box-kernel
    /// operation returns for the same boxes, so a caller that computes
    /// boxes on its own bounds gets the operation's very result (`==`).
    pub fn from_boxes(space: &[String], boxes: Vec<Vec<(i64, i64)>>) -> Set {
        assert!(
            boxes.iter().all(|b| b.len() == space.len()),
            "box of wrong arity"
        );
        boxes::to_set(space, boxes)
    }

    /// The per-dimension `(min, max)` over the non-empty disjuncts, if the
    /// set is a union of parameter-free boxes with a bounded non-empty
    /// hull, decided on their bounds; `None` otherwise (for any other set,
    /// [`crate::enumerate::bounding_box`] projects).
    pub fn box_hull(&self) -> Option<Vec<(i64, i64)>> {
        boxes::bounding_box(self).flatten()
    }

    /// The tuple space variable names.
    pub fn space(&self) -> &[String] {
        &self.space
    }

    /// Dimensionality of the tuple space.
    pub fn arity(&self) -> usize {
        self.space.len()
    }

    /// The disjuncts.
    pub fn polys(&self) -> &[Polyhedron] {
        &self.polys
    }

    /// True iff every disjunct is an interval polyhedron (see
    /// [`crate::intern`] for why that decides what is memoized).
    pub(crate) fn is_interval(&self) -> bool {
        self.polys.iter().all(Polyhedron::is_interval)
    }

    /// From disjuncts that are distinct and none trivially empty.
    pub(crate) fn from_disjuncts(space: &[String], polys: Vec<Polyhedron>) -> Self {
        Set {
            space: space.to_vec(),
            polys,
        }
    }

    fn push(&mut self, p: Polyhedron) {
        if !p.is_trivially_empty() && !self.polys.contains(&p) {
            self.polys.push(p);
        }
    }

    fn assert_same_space(&self, other: &Set, op: &str) {
        assert_eq!(self.space, other.space, "{op} on mismatched spaces");
    }

    /// Set union (memoized via the [`crate::intern`] tables).
    pub fn union(&self, other: &Set) -> Set {
        self.assert_same_space(other, "union");
        intern::cached_set_op(intern::SetOp::Union, self, other, || {
            self.union_uncached(other)
        })
    }

    /// Cache-bypassing variant of [`Set::union`]: identical result, no
    /// interner traffic.
    pub fn union_uncached(&self, other: &Set) -> Set {
        self.assert_same_space(other, "union");
        let mut out = self.clone();
        for p in &other.polys {
            out.push(p.clone());
        }
        out
    }

    /// Set intersection (pairwise polyhedron conjunction; memoized).
    /// Unions of parameter-free boxes are intersected on their bounds.
    pub fn intersect(&self, other: &Set) -> Set {
        self.assert_same_space(other, "intersect");
        intern::cached_set_op(intern::SetOp::Intersect, self, other, || {
            self.intersect_impl(other, true)
        })
    }

    /// Cache-bypassing variant of [`Set::intersect`].
    pub fn intersect_uncached(&self, other: &Set) -> Set {
        self.assert_same_space(other, "intersect");
        self.intersect_impl(other, false)
    }

    fn intersect_impl(&self, other: &Set, cached: bool) -> Set {
        if let Some(boxes) = boxes::intersect(self, other) {
            return boxes;
        }
        let mut out = Set::empty(&self.space);
        for a in &self.polys {
            for b in &other.polys {
                let c = a.intersect(b);
                if !is_empty(&c, cached) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Set difference `self ∖ other`, exact over the integers for the
    /// negation step (constraint negation is integer-exact; memoized).
    /// Unions of parameter-free boxes are subtracted on their bounds, into
    /// the same pieces in the same order.
    pub fn subtract(&self, other: &Set) -> Set {
        self.assert_same_space(other, "subtract");
        intern::cached_set_op(intern::SetOp::Subtract, self, other, || {
            self.subtract_impl(other, true)
        })
    }

    /// Cache-bypassing variant of [`Set::subtract`].
    pub fn subtract_uncached(&self, other: &Set) -> Set {
        self.assert_same_space(other, "subtract");
        self.subtract_impl(other, false)
    }

    fn subtract_impl(&self, other: &Set, cached: bool) -> Set {
        if let Some(boxes) = boxes::subtract(self, other) {
            return boxes;
        }
        // A ∖ (B1 ∪ … ∪ Bk) = ((A ∖ B1) ∖ …) ∖ Bk
        let mut cur: Vec<Polyhedron> = self.polys.clone();
        for b in &other.polys {
            let mut next: Vec<Polyhedron> = Vec::new();
            for a in cur {
                // a ∖ b = ∪ over constraints c of b: a ∧ ¬c
                // (standard "complement one constraint at a time" expansion;
                // we additionally conjoin the previously-negated prefix's
                // *non*-negated constraints to keep disjuncts disjoint-ish)
                let mut prefix = a.clone();
                for c in b.constraints() {
                    for neg in c.negate() {
                        let mut piece = prefix.clone();
                        piece.add(neg);
                        if !is_empty(&piece, cached) {
                            next.push(piece);
                        }
                    }
                    prefix.add(c.clone());
                    if prefix.is_trivially_empty() {
                        break;
                    }
                }
            }
            cur = next;
        }
        let mut out = Set::empty(&self.space);
        for p in cur {
            out.push(p);
        }
        out
    }

    /// Rational emptiness: `true` ⇒ the set has no integer points for *any*
    /// parameter values; `false` means "may be nonempty".
    pub fn is_empty(&self) -> bool {
        self.polys.iter().all(|p| p.is_empty())
    }

    /// Cache-bypassing variant of [`Set::is_empty`].
    pub fn is_empty_uncached(&self) -> bool {
        self.polys.iter().all(|p| p.is_empty_uncached())
    }

    /// Prove `self ⊆ other` (for all parameter values). Conservative:
    /// `false` means "could not prove". Memoized.
    pub fn is_subset(&self, other: &Set) -> bool {
        self.assert_same_space(other, "is_subset");
        intern::cached_subset(self, other, || self.subtract(other).is_empty())
    }

    /// Cache-bypassing variant of [`Set::is_subset`].
    pub fn is_subset_uncached(&self, other: &Set) -> bool {
        self.subtract_uncached(other).is_empty_uncached()
    }

    /// Prove extensional equality. Conservative like [`Set::is_subset`].
    pub fn set_eq(&self, other: &Set) -> bool {
        self.is_subset(other) && other.is_subset(self)
    }

    /// Project out one tuple variable, shrinking the space. Memoized.
    pub fn project_out(&self, var: &str) -> Set {
        assert!(
            self.space.iter().any(|v| v == var),
            "project_out: {var} not in space"
        );
        intern::cached_project(self, var, || self.project_impl(var, true))
    }

    /// Cache-bypassing variant of [`Set::project_out`].
    pub fn project_out_uncached(&self, var: &str) -> Set {
        assert!(
            self.space.iter().any(|v| v == var),
            "project_out: {var} not in space"
        );
        self.project_impl(var, false)
    }

    fn project_impl(&self, var: &str, cached: bool) -> Set {
        let space: Vec<String> = self.space.iter().filter(|v| *v != var).cloned().collect();
        let mut out = Set::empty(&space);
        for p in &self.polys {
            let q = if cached {
                p.eliminate(var)
            } else {
                p.eliminate_uncached(var)
            };
            if !is_empty(&q, cached) {
                out.push(q);
            }
        }
        out
    }

    /// Project onto a subset of the space (order given by `keep`).
    pub fn project_onto<S: AsRef<str>>(&self, keep: &[S]) -> Set {
        let keep: Vec<String> = keep.iter().map(|s| s.as_ref().to_string()).collect();
        let mut cur = self.clone();
        let drop: Vec<String> = self
            .space
            .iter()
            .filter(|v| !keep.contains(v))
            .cloned()
            .collect();
        for v in &drop {
            cur = cur.project_out(v);
        }
        // reorder space to match `keep`
        assert_eq!(
            cur.space.iter().collect::<BTreeSet<_>>(),
            keep.iter().collect::<BTreeSet<_>>(),
            "project_onto: keep must be a subset of the space"
        );
        Set {
            space: keep,
            polys: cur.polys,
        }
    }

    /// Rename a space variable (also rewrites constraints).
    pub fn rename_dim(&self, from: &str, to: &str) -> Set {
        let space: Vec<String> = self
            .space
            .iter()
            .map(|v| if v == from { to.to_string() } else { v.clone() })
            .collect();
        let polys = self.polys.iter().map(|p| p.rename(from, to)).collect();
        Set { space, polys }
    }

    /// Membership test for a concrete point with concrete parameters.
    pub fn contains(&self, point: &[i64], params: &dyn Fn(&str) -> Option<i64>) -> bool {
        assert_eq!(point.len(), self.space.len());
        let env = |v: &str| {
            if let Some(pos) = self.space.iter().position(|s| s == v) {
                Some(point[pos])
            } else {
                params(v)
            }
        };
        self.polys
            .iter()
            .any(|p| p.contains_point(&env) == Some(true))
    }
}

/// Emptiness through the memo tables, or around them.
fn is_empty(p: &Polyhedron, cached: bool) -> bool {
    if cached {
        p.is_empty()
    } else {
        p.is_empty_uncached()
    }
}

impl fmt::Display for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{[{}] : ", self.space.join(","))?;
        if self.polys.is_empty() {
            write!(f, "false")?;
        } else {
            for (i, p) in self.polys.iter().enumerate() {
                if i > 0 {
                    write!(f, " or ")?;
                }
                write!(f, "({p})")?;
            }
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Set {
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
    fn rect_membership() {
        let s = Set::rect(&["i", "j"], &[1, 1], &[4, 3]);
        assert!(s.contains(&[1, 1], &no_params));
        assert!(s.contains(&[4, 3], &no_params));
        assert!(!s.contains(&[5, 1], &no_params));
        assert!(!s.contains(&[0, 2], &no_params));
    }

    #[test]
    fn union_and_intersection() {
        let a = Set::rect(&["i"], &[1], &[5]);
        let b = Set::rect(&["i"], &[4], &[9]);
        let u = a.union(&b);
        assert!(u.contains(&[2], &no_params) && u.contains(&[8], &no_params));
        let i = a.intersect(&b);
        assert!(i.contains(&[4], &no_params) && i.contains(&[5], &no_params));
        assert!(!i.contains(&[3], &no_params) && !i.contains(&[6], &no_params));
    }

    #[test]
    fn subtraction_is_integer_exact() {
        let a = Set::rect(&["i"], &[1], &[10]);
        let b = Set::rect(&["i"], &[4], &[6]);
        let d = a.subtract(&b);
        for i in 1..=10 {
            assert_eq!(d.contains(&[i], &no_params), !(4..=6).contains(&i), "i={i}");
        }
        assert!(!d.contains(&[0], &no_params));
    }

    #[test]
    fn subset_tests() {
        let a = Set::rect(&["i", "j"], &[2, 2], &[3, 3]);
        let b = Set::rect(&["i", "j"], &[1, 1], &[4, 4]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.set_eq(&a.clone()));
    }

    #[test]
    fn symbolic_subset_block_distribution() {
        // Paper §7 shape: read set [Mj*Bj + Bj + 1] vs write set
        // [Mj*Bj + Bj + 1 : Mj*Bj + Bj + 2] — the former ⊆ the latter
        // for all Mj, Bj.
        let base = || var("Mj") /*proc id*/ * 1; // readable alias
        let lo = base(); // Mj (scaled below)
        let _ = lo;
        let read = Set::from_constraints(
            &["d"],
            [Constraint::eq(var("d"), var("Mj") + var("Bj") + 1)],
        );
        let write = Set::from_constraints(
            &["d"],
            [
                Constraint::ge(var("d"), var("Mj") + var("Bj") + 1),
                Constraint::le(var("d"), var("Mj") + var("Bj") + 2),
            ],
        );
        assert!(read.is_subset(&write));
        assert!(!write.is_subset(&read));
    }

    #[test]
    fn projection_shadows() {
        // {[i,j] : 1 <= i <= j <= N} projected onto i is {1 <= i <= N}
        let s = Set::from_constraints(
            &["i", "j"],
            [
                Constraint::ge(var("i"), crate::cst(1)),
                Constraint::ge(var("j"), var("i")),
                Constraint::le(var("j"), var("N")),
            ],
        );
        let p = s.project_out("j");
        assert_eq!(p.space(), &["i".to_string()]);
        let params = |v: &str| if v == "N" { Some(5) } else { None };
        assert!(p.contains(&[1], &params));
        assert!(p.contains(&[5], &params));
        assert!(!p.contains(&[6], &params));
    }

    #[test]
    fn rename_dim_rewrites_constraints() {
        let s = Set::rect(&["i"], &[1], &[2]).rename_dim("i", "x");
        assert!(s.contains(&[1], &no_params));
        assert_eq!(s.space(), &["x".to_string()]);
    }
}
