//! The box kernel: interval polyhedra read into per-variable bounds, and
//! the image, intersection, difference and bounding box of boxes computed
//! on those bounds.
//!
//! At a fixed processor count every per-rank set the communication planner
//! and the coverage verifier build is a union of boxes: each constraint
//! bounds one tuple variable and mentions no parameter (the start/stride/
//! count normal form of Hunt et al., with stride 1). Rewriting such sets
//! constraint by constraint — substitution, renaming and a clone per piece —
//! costs tens of microseconds an operation; reading them into `(lo, hi)`
//! pairs and computing on the pairs costs a few. [`crate::Set`],
//! [`crate::Map`] and [`crate::enumerate::bounding_box`] take this path
//! when every operand disjunct is a parameter-free box over the set's space
//! and the constraint path otherwise, so the choice depends on the operands
//! alone and the memoized and cache-bypassing variants decide alike.
//!
//! Every result disjunct is emitted in one canonical form: per dimension,
//! in space order, `v - lo ≥ 0` then `-v + hi ≥ 0`, or `v - c = 0` when
//! both bounds are `c`; open ends are not stated. A difference keeps the
//! constraint path's decomposition: `b`'s constraints are negated one at a
//! time in `b`'s order, giving the same pieces in the same order.

use crate::constraint::{Constraint, Kind};
use crate::expr::LinExpr;
use crate::map::Map;
use crate::poly::Polyhedron;
use crate::set::Set;
use std::sync::Arc;

/// Finite bounds read from a constraint lie within `±LIMIT`, so a map's
/// shift or a negation's ±1 on them cannot overflow. A constraint with a
/// larger constant is left to the constraint path.
const LIMIT: i64 = 1 << 60;

/// Inclusive bounds of one dimension; `i64::MIN` / `i64::MAX` are open ends.
type Range = (i64, i64);

/// Per-dimension bounds of one box, in space order.
type Bounds = Vec<Range>;

const OPEN: Range = (i64::MIN, i64::MAX);

/// What one stored constraint `a·v + k ≥ 0` (or `= 0`) says about its
/// variable, `a = ±1` after normalization: `(v, lo, hi)`, plus whether
/// [`Constraint::negate`] lists the part above `hi` before the part below
/// `lo` (an equality with `a = +1`). The constant constraint only the
/// canonical empty marker stores reads as the empty range of no variable.
/// `None` for a constraint on two variables or a constant beyond `±LIMIT`.
///
/// This is the crate's one bounds reader.
fn bound(c: &Constraint) -> Option<(&str, Range, bool)> {
    let k = c.expr.constant();
    if !(-LIMIT..=LIMIT).contains(&k) {
        return None;
    }
    let mut terms = c.expr.terms();
    match (terms.next(), terms.next()) {
        (None, _) => Some(("", (1, 0), false)),
        (Some((v, a @ (1 | -1))), None) => Some(match c.kind {
            Kind::Eq => (v, (-a * k, -a * k), a > 0),
            Kind::Ge if a > 0 => (v, (-k, i64::MAX), false),
            Kind::Ge => (v, (i64::MIN, k), false),
        }),
        _ => None,
    }
}

/// Emptiness of an interval polyhedron (parameters allowed) from the
/// bounds of each variable; `None` if [`bound`] cannot read a constraint.
/// This is Fourier–Motzkin's answer: FM only pairs bounds of the same
/// variable here.
pub(crate) fn interval_empty(p: &Polyhedron) -> Option<bool> {
    // (variable, range) for the handful of variables bounded
    let mut ranges: Vec<(&str, Range)> = Vec::new();
    for c in p.constraints() {
        let (v, r, _) = bound(c)?;
        match ranges.iter_mut().find(|b| b.0 == v) {
            Some(b) => b.1 = meet(b.1, r),
            None => ranges.push((v, r)),
        }
    }
    Some(ranges.iter().any(|&(_, (lo, hi))| lo > hi))
}

/// A constraint of a box as a cut of dimension `dim`: see [`bound`].
struct Cut {
    dim: usize,
    range: Range,
    above_first: bool,
}

/// The cuts of `p` in its constraint order, or `None` unless `p` is a
/// parameter-free box over `space`.
fn cuts(p: &Polyhedron, space: &[String]) -> Option<Vec<Cut>> {
    (p.constraints().iter())
        .map(|c| {
            let (v, range, above_first) = bound(c)?;
            let dim = space.iter().position(|s| s == v)?;
            Some(Cut {
                dim,
                range,
                above_first,
            })
        })
        .collect()
}

/// The bounds of `p` over `space`, if it is a parameter-free box.
fn box_of(p: &Polyhedron, space: &[String]) -> Option<Bounds> {
    let mut b = vec![OPEN; space.len()];
    for cut in cuts(p, space)? {
        b[cut.dim] = meet(b[cut.dim], cut.range);
    }
    Some(b)
}

/// Every disjunct of `s` as bounds, if each is a parameter-free box.
fn boxes_of(s: &Set) -> Option<Vec<Bounds>> {
    s.polys().iter().map(|p| box_of(p, s.space())).collect()
}

fn meet(a: Range, b: Range) -> Range {
    (a.0.max(b.0), a.1.min(b.1))
}

fn is_empty(b: &[Range]) -> bool {
    b.iter().any(|&(lo, hi)| lo > hi)
}

/// The set of the non-empty `boxes`, each once, in order, in canonical
/// form: [`Set::from_boxes`].
pub(crate) fn to_set(space: &[String], boxes: Vec<Bounds>) -> Set {
    let names: Vec<Arc<str>> = space.iter().map(|v| Arc::from(v.as_str())).collect();
    let mut kept: Vec<Bounds> = Vec::with_capacity(boxes.len());
    for b in boxes {
        if !is_empty(&b) && !kept.contains(&b) {
            kept.push(b);
        }
    }
    let polys = kept.iter().map(|b| {
        let mut cons = Vec::with_capacity(2 * b.len());
        for (v, &(lo, hi)) in names.iter().zip(b) {
            if lo == hi {
                cons.push(Constraint::eq0(LinExpr::unit(v, 1, -lo)));
                continue;
            }
            if lo != i64::MIN {
                cons.push(Constraint::ge0(LinExpr::unit(v, 1, -lo)));
            }
            if hi != i64::MAX {
                cons.push(Constraint::ge0(LinExpr::unit(v, -1, hi)));
            }
        }
        Polyhedron::from_normalized(cons)
    });
    Set::from_disjuncts(space, polys.collect())
}

/// `a ∩ b` on boxes: every pair, `a`-major.
pub(crate) fn intersect(a: &Set, b: &Set) -> Option<Set> {
    let (xs, ys) = (boxes_of(a)?, boxes_of(b)?);
    let pairs = xs.iter().flat_map(|x| {
        ys.iter()
            .map(move |y| x.iter().zip(y).map(|(&r, &s)| meet(r, s)).collect())
    });
    Some(to_set(a.space(), pairs.collect()))
}

/// `a ∖ b` on boxes, in the constraint path's decomposition: each
/// disjunct of `b` in turn splits every piece so far into the parts
/// outside `b`'s constraints, one constraint at a time in `b`'s order,
/// each part also inside the constraints before it.
pub(crate) fn subtract(a: &Set, b: &Set) -> Option<Set> {
    let mut cur = boxes_of(a)?;
    let cut_lists: Vec<Vec<Cut>> = (b.polys().iter())
        .map(|p| cuts(p, b.space()))
        .collect::<Option<_>>()?;
    for cut_list in &cut_lists {
        let mut next: Vec<Bounds> = Vec::new();
        for mut prefix in cur.into_iter().filter(|b| !is_empty(b)) {
            for cut in cut_list {
                let d = cut.dim;
                let (lo, hi) = cut.range;
                let below = (lo != i64::MIN).then(|| (prefix[d].0, prefix[d].1.min(lo - 1)));
                let above = (hi != i64::MAX).then(|| (prefix[d].0.max(hi + 1), prefix[d].1));
                let (first, second) = if cut.above_first {
                    (above, below)
                } else {
                    (below, above)
                };
                for r in [first, second].into_iter().flatten() {
                    if r.0 <= r.1 {
                        let mut piece = prefix.clone();
                        piece[d] = r;
                        next.push(piece);
                    }
                }
                prefix[d] = meet(prefix[d], cut.range);
                if is_empty(&prefix) {
                    break;
                }
            }
        }
        cur = next;
    }
    Some(to_set(a.space(), cur))
}

/// The image of `s` under `m`, if every output of `m` is a constant or
/// `±x + c` of an input `x` no other output uses, and `s` is a union of
/// parameter-free boxes.
pub(crate) fn image(m: &Map, s: &Set) -> Option<Set> {
    // per output: (input dimension and its coefficient, or none; constant)
    let mut rules: Vec<(Option<(usize, i64)>, i64)> = Vec::with_capacity(m.outputs().len());
    for e in m.outputs() {
        let c = e.constant();
        if !(-LIMIT..=LIMIT).contains(&c) {
            return None;
        }
        let mut terms = e.terms();
        let input = match (terms.next(), terms.next()) {
            (None, _) => None,
            (Some((v, a @ (1 | -1))), None) => {
                let x = m.in_space().iter().position(|s| s == v)?;
                if rules.iter().any(|r| r.0.is_some_and(|(y, _)| y == x)) {
                    return None;
                }
                Some((x, a))
            }
            _ => return None,
        };
        rules.push((input, c));
    }
    let boxes = boxes_of(s)?;
    let images = (boxes.iter().filter(|b| !is_empty(b)))
        .map(|b| {
            (rules.iter())
                .map(|&(input, c)| match input {
                    None => (c, c),
                    Some((x, 1)) => (shift(b[x].0, c), shift(b[x].1, c)),
                    Some((x, _)) => (shift(negate(b[x].1), c), shift(negate(b[x].0), c)),
                })
                .collect()
        })
        .collect();
    Some(to_set(m.out_space(), images))
}

/// `v + c`, open ends staying open.
fn shift(v: i64, c: i64) -> i64 {
    if v == i64::MIN || v == i64::MAX {
        v
    } else {
        v + c
    }
}

/// `-v`, an open end turning into the other open end.
fn negate(v: i64) -> i64 {
    match v {
        i64::MIN => i64::MAX,
        i64::MAX => i64::MIN,
        v => -v,
    }
}

/// The per-dimension `(min, max)` over the non-empty boxes of `s`, if
/// `s` is a union of parameter-free boxes: `Some(None)` when no box is
/// non-empty or a non-empty one is open on some side.
pub(crate) fn bounding_box(s: &Set) -> Option<Option<Vec<(i64, i64)>>> {
    let boxes = boxes_of(s)?;
    let mut hull: Option<Bounds> = None;
    for b in boxes.iter().filter(|b| !is_empty(b)) {
        if b.iter().any(|&r| r.0 == i64::MIN || r.1 == i64::MAX) {
            return Some(None);
        }
        let h = hull.get_or_insert_with(|| b.clone());
        for (h, r) in h.iter_mut().zip(b) {
            *h = (h.0.min(r.0), h.1.max(r.1));
        }
    }
    Some(hull)
}
