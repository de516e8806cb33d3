//! Property tests for the iset algebra, run through BOTH the memoized
//! (interned) operation paths and the `*_uncached` cache-bypassing paths.
//!
//! Two kinds of assertion appear below:
//!
//! * **Structural**: the cached and uncached variants of every hot
//!   operation must return byte-identical `Set`s. Memoization is keyed on
//!   interned structure, so any divergence here means the cache returned a
//!   stale or wrongly-keyed entry.
//! * **Semantic**: algebraic laws (commutativity, associativity,
//!   absorption, subtract/union round-trips, projection monotonicity,
//!   subset reflexivity/transitivity) checked pointwise by enumerating a
//!   finite integer grid. The framework is exact for union / intersect /
//!   subtract membership on integer points and *over-approximating* for
//!   projection and conservative for `is_subset`, so the laws are phrased
//!   in the directions that must always hold (see each test).
//!
//! Two more batteries pin the cheap paths for concrete sets to the
//! general ones: interval emptiness (every constraint bounds one
//! variable) against Fourier–Motzkin, cached against uncached on
//! interval, mixed and symbolic operands, and `LinExpr` against the
//! name-keyed ordered map it is a sorted vector in place of. A last
//! battery checks the box kernel — image, intersection, difference and
//! bounding box of parameter-free boxes — against enumeration and against
//! the constraint path, difference pieces in order.
//!
//! Inputs are drawn by the vendored deterministic proptest shim: each test
//! seeds its RNG from the test name (optionally mixed with the
//! `PROPTEST_SEED` environment variable, which CI pins), so failures
//! reproduce exactly.

use dhpf_iset::enumerate::bounding_box;
use dhpf_iset::{Constraint, LinExpr, Map, Polyhedron, Set};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SPACE: [&str; 2] = ["i", "j"];
/// Enumeration window. Wide enough that the random constraints (|coeff| ≤ 2,
/// |const| ≤ 6) produce sets with nontrivial boundaries inside it.
const LO: i64 = -4;
const HI: i64 = 7;

fn grid() -> impl Iterator<Item = (i64, i64)> {
    (LO..=HI).flat_map(|i| (LO..=HI).map(move |j| (i, j)))
}

fn holds(s: &Set, p: (i64, i64)) -> bool {
    s.contains(&[p.0, p.1], &|_| None)
}

/// Pointwise equality on the enumeration grid.
fn same_points(a: &Set, b: &Set) -> Result<(), String> {
    for p in grid() {
        if holds(a, p) != holds(b, p) {
            return Err(format!(
                "point {p:?}: lhs={} rhs={}\n  lhs = {a:?}\n  rhs = {b:?}",
                holds(a, p),
                holds(b, p)
            ));
        }
    }
    Ok(())
}

/// One random affine constraint `a·i + b·j + c {≥,=} 0` with small
/// coefficients; equalities are rare so most polyhedra are full-dimensional.
fn constraint_strategy() -> impl Strategy<Value = Constraint> {
    (-2i64..=2, -2i64..=2, -6i64..=6, 0u8..=7).prop_map(|(a, b, c, k)| {
        let e = LinExpr::from_terms([("i", a), ("j", b)], c);
        match k {
            0 => Constraint::eq0(e),
            _ => Constraint::ge0(e),
        }
    })
}

/// A random polyhedron of 0–3 random constraints.
fn poly_strategy() -> impl Strategy<Value = Polyhedron> {
    prop::collection::vec(constraint_strategy(), 0..=3).prop_map(Polyhedron::new)
}

/// One constraint `a·v + k {≥,=} 0` on a single variable `v` of the space
/// or the parameter `n`, `|a| ≤ 2` (normalization makes it ±1): lower and
/// upper bounds, one-sided or crossing, equalities pinning a value.
fn interval_constraint() -> impl Strategy<Value = Constraint> {
    let coeff = prop_oneof![Just(-2i64), Just(-1), Just(1), Just(2)];
    (0usize..3, coeff, -5i64..=5, 0u8..=4).prop_map(|(v, a, k, kind)| {
        let e = LinExpr::term(["i", "j", "n"][v], a) + k;
        match kind {
            0 => Constraint::eq0(e),
            _ => Constraint::ge0(e),
        }
    })
}

/// An interval polyhedron of 0–5 constraints.
fn interval_poly() -> impl Strategy<Value = Polyhedron> {
    prop::collection::vec(interval_constraint(), 0..=5).prop_map(Polyhedron::new)
}

/// The union of 1–3 polyhedra drawn from `poly`, built through the
/// cache-bypassing path so test inputs never depend on the interner state
/// being probed.
fn union_of(poly: impl Strategy<Value = Polyhedron>) -> impl Strategy<Value = Set> {
    prop::collection::vec(poly, 1..=3).prop_map(|polys| {
        let mut s = Set::empty(&SPACE);
        for p in polys {
            s = s.union_uncached(&Set::from_poly(&SPACE, p));
        }
        s
    })
}

/// A random union of random (mostly symbolic: two-variable) polyhedra.
fn set_strategy() -> impl Strategy<Value = Set> {
    union_of(poly_strategy())
}

/// A union of interval polyhedra: the per-processor shape.
fn interval_set() -> impl Strategy<Value = Set> {
    union_of(interval_poly())
}

/// A union whose disjuncts are interval or symbolic at random.
fn mixed_set() -> impl Strategy<Value = Set> {
    union_of(prop_oneof![interval_poly(), poly_strategy()])
}

/// Fourier–Motzkin's emptiness decision on the public cache-bypassing
/// elimination: eliminate every variable, look for a false constant.
fn fm_empty(p: &Polyhedron) -> bool {
    let mut q = p.clone();
    for v in p.vars() {
        q = q.eliminate_uncached(&v);
    }
    q.is_trivially_empty()
}

/// Every memoized operation returns exactly (`==`) what its
/// cache-bypassing variant returns.
fn cached_matches_uncached(a: &Set, b: &Set) -> Result<(), String> {
    prop_assert_eq!(a.union(b), a.union_uncached(b));
    prop_assert_eq!(a.intersect(b), a.intersect_uncached(b));
    prop_assert_eq!(a.subtract(b), a.subtract_uncached(b));
    prop_assert_eq!(a.is_subset(b), a.is_subset_uncached(b));
    prop_assert_eq!(a.is_empty(), a.is_empty_uncached());
    prop_assert_eq!(a.project_out("i"), a.project_out_uncached("i"));
    prop_assert_eq!(a.project_out("j"), a.project_out_uncached("j"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cached and uncached paths must agree structurally for every hot op.
    #[test]
    fn cached_paths_match_uncached_paths(a in set_strategy(), b in set_strategy()) {
        cached_matches_uncached(&a, &b)?;
    }

    /// The same on interval operands (computed directly, never memoized),
    /// mixed ones, and every pairing of the kinds with symbolic ones.
    #[test]
    fn cached_paths_match_uncached_paths_on_interval_and_mixed_sets(
        a in interval_set(),
        b in interval_set(),
        m in mixed_set(),
        g in set_strategy(),
    ) {
        for (x, y) in [(&a, &b), (&a, &m), (&m, &a), (&m, &g), (&g, &a), (&m, &m)] {
            cached_matches_uncached(x, y)?;
        }
    }

    /// A second identical query must be served from the memo tables with
    /// the same value the first computation produced.
    #[test]
    fn repeated_cached_queries_are_stable(a in set_strategy(), b in set_strategy()) {
        let first = a.intersect(&b);
        let again = a.intersect(&b);
        prop_assert_eq!(&first, &again);
        prop_assert_eq!(a.union(&b), a.union(&b));
        prop_assert_eq!(a.subtract(&b), a.subtract(&b));
    }

    /// ∪ and ∩ are commutative (pointwise, and through the cache).
    #[test]
    fn union_and_intersect_commute(a in set_strategy(), b in set_strategy()) {
        if let Err(e) = same_points(&a.union(&b), &b.union(&a)) {
            prop_assert!(false, "union not commutative: {e}");
        }
        if let Err(e) = same_points(&a.intersect(&b), &b.intersect(&a)) {
            prop_assert!(false, "intersect not commutative: {e}");
        }
    }

    /// ∪ and ∩ are associative.
    #[test]
    fn union_and_intersect_associate(
        a in set_strategy(),
        b in set_strategy(),
        c in set_strategy(),
    ) {
        let l = a.union(&b).union(&c);
        let r = a.union(&b.union(&c));
        if let Err(e) = same_points(&l, &r) {
            prop_assert!(false, "union not associative: {e}");
        }
        let l = a.intersect(&b).intersect(&c);
        let r = a.intersect(&b.intersect(&c));
        if let Err(e) = same_points(&l, &r) {
            prop_assert!(false, "intersect not associative: {e}");
        }
    }

    /// Absorption: A ∪ (A ∩ B) = A and A ∩ (A ∪ B) = A.
    #[test]
    fn absorption_laws(a in set_strategy(), b in set_strategy()) {
        if let Err(e) = same_points(&a.union(&a.intersect(&b)), &a) {
            prop_assert!(false, "A ∪ (A ∩ B) ≠ A: {e}");
        }
        if let Err(e) = same_points(&a.intersect(&a.union(&b)), &a) {
            prop_assert!(false, "A ∩ (A ∪ B) ≠ A: {e}");
        }
    }

    /// Subtract-then-union round-trip: (A ∖ B) ∪ (A ∩ B) = A. Subtraction
    /// is exact on integer points (negating `e ≥ 0` gives `-e - 1 ≥ 0`),
    /// so this holds pointwise, not just as an inclusion.
    #[test]
    fn subtract_union_round_trip(a in set_strategy(), b in set_strategy()) {
        let rebuilt = a.subtract(&b).union(&a.intersect(&b));
        if let Err(e) = same_points(&rebuilt, &a) {
            prop_assert!(false, "(A ∖ B) ∪ (A ∩ B) ≠ A: {e}");
        }
        // and the subtracted part never overlaps B on integer points
        for p in grid() {
            prop_assert!(
                !(holds(&a.subtract(&b), p) && holds(&b, p)),
                "point {p:?} survived subtraction of a set containing it"
            );
        }
    }

    /// Projection is monotone and over-approximating: every point of A
    /// projects into π(A), and A ⊆ A ∪ B implies π(A) ⊆ π(A ∪ B).
    #[test]
    fn projection_is_monotone(a in set_strategy(), b in set_strategy()) {
        let pa = a.project_out("j");
        for p in grid() {
            if holds(&a, p) {
                // π(A) lives in space [i]; membership needs only i
                prop_assert!(
                    pa.contains(&[p.0], &|_| None),
                    "point {p:?} of A lost by projection"
                );
            }
        }
        let pu = a.union(&b).project_out("j");
        for i in LO..=HI {
            prop_assert!(
                !pa.contains(&[i], &|_| None) || pu.contains(&[i], &|_| None),
                "π not monotone at i={i}"
            );
        }
    }

    /// `is_subset` is reflexive (A ∖ A is exactly empty, which the
    /// rational emptiness test proves) and sound-transitive: whenever the
    /// conservative prover answers `true` twice, the composed containment
    /// really holds on integer points.
    #[test]
    fn subset_reflexive_and_sound_transitive(
        a in set_strategy(),
        b in set_strategy(),
        c in set_strategy(),
    ) {
        prop_assert!(a.is_subset(&a), "is_subset not reflexive for {a:?}");
        if a.is_subset(&b) && b.is_subset(&c) {
            for p in grid() {
                prop_assert!(
                    !holds(&a, p) || holds(&c, p),
                    "transitivity violated at {p:?}"
                );
            }
        }
        // and a positive answer is always sound
        if a.is_subset(&b) {
            for p in grid() {
                prop_assert!(!holds(&a, p) || holds(&b, p), "unsound subset at {p:?}");
            }
        }
    }
}

/// Reference model of [`LinExpr`]: the name-keyed ordered map its terms
/// used to be, with the operations and the rendering written against it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Model {
    terms: BTreeMap<String, i64>,
    constant: i64,
}

impl Model {
    fn add_term(&mut self, v: &str, c: i64) {
        if c == 0 {
            return;
        }
        let e = self.terms.entry(v.to_string()).or_insert(0);
        *e += c;
        if *e == 0 {
            self.terms.remove(v);
        }
    }

    fn add_scaled(&self, other: &Model, k: i64) -> Model {
        let mut out = self.clone();
        if k != 0 {
            for (v, c) in &other.terms {
                out.add_term(v, c * k);
            }
            out.constant += other.constant * k;
        }
        out
    }

    fn coeff(&self, v: &str) -> i64 {
        self.terms.get(v).copied().unwrap_or(0)
    }

    fn substitute(&self, v: &str, r: &Model) -> Model {
        let c = self.coeff(v);
        let mut out = self.clone();
        out.terms.remove(v);
        out.add_scaled(r, c)
    }

    fn rename(&self, from: &str, to: &str) -> Model {
        let c = self.coeff(from);
        let mut out = self.clone();
        out.terms.remove(from);
        out.add_term(to, c);
        out
    }

    fn render(&self) -> String {
        let mut s = String::new();
        for (n, (v, &c)) in self.terms.iter().enumerate() {
            let a = if n == 0 { c } else { c.abs() };
            if n > 0 {
                s += if c < 0 { " - " } else { " + " };
            }
            s += &match a {
                1 => v.clone(),
                -1 => format!("-{v}"),
                _ => format!("{a}{v}"),
            };
        }
        if s.is_empty() {
            s = self.constant.to_string();
        } else if self.constant != 0 {
            let sign = if self.constant < 0 { '-' } else { '+' };
            s += &format!(" {sign} {}", self.constant.abs());
        }
        s
    }
}

/// Names whose order is not insertion order: upper case sorts first, `_`
/// between the cases, a prefix before its extensions.
const NAMES: [&str; 7] = ["i", "i__in", "j", "N", "e0", "e1", "x_"];

/// An expression built term by term (zero coefficients and cancellations
/// included), together with its model.
fn expr_strategy() -> impl Strategy<Value = (LinExpr, Model)> {
    (
        prop::collection::vec((0usize..NAMES.len(), -2i64..=2), 0..=6),
        -3i64..=3,
    )
        .prop_map(|(terms, constant)| {
            let mut e = LinExpr::cst(constant);
            let mut m = Model {
                terms: BTreeMap::new(),
                constant,
            };
            for (v, c) in terms {
                e.add_term(NAMES[v], c);
                m.add_term(NAMES[v], c);
            }
            (e, m)
        })
}

/// `e` holds exactly the model's terms, constant and rendering.
fn agrees(e: &LinExpr, m: &Model) -> Result<(), String> {
    let terms: Vec<(String, i64)> = e.terms().map(|(v, c)| (v.to_string(), c)).collect();
    let expect: Vec<(String, i64)> = m.terms.iter().map(|(v, c)| (v.clone(), *c)).collect();
    prop_assert_eq!(terms, expect);
    prop_assert_eq!(e.constant(), m.constant);
    prop_assert_eq!(e.to_string(), m.render());
    for v in NAMES {
        prop_assert_eq!(e.coeff(v), m.coeff(v));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On an interval polyhedron the bound intersection that decides
    /// emptiness gives Fourier–Motzkin's answer, cached or not.
    #[test]
    fn interval_emptiness_is_fourier_motzkin(p in interval_poly()) {
        let fm = fm_empty(&p);
        prop_assert!(p.is_empty_uncached() == fm, "FM says empty = {fm} for {p:?}");
        prop_assert!(p.is_empty() == fm, "FM says empty = {fm} for {p:?}");
    }

    /// `LinExpr` behaves as the ordered map it replaced: term order,
    /// `Display`, `Ord`, `==`, `coeff`, `add_scaled`, `substitute`,
    /// `rename`.
    #[test]
    fn lin_expr_matches_the_ordered_map_model(
        (a, ma) in expr_strategy(),
        (b, mb) in expr_strategy(),
        v in 0usize..NAMES.len(),
        w in 0usize..NAMES.len(),
        k in -2i64..=2,
    ) {
        agrees(&a, &ma)?;
        prop_assert_eq!(a.cmp(&b), ma.cmp(&mb));
        prop_assert_eq!(a == b, ma == mb);
        agrees(&a.add_scaled(&b, k), &ma.add_scaled(&mb, k))?;
        agrees(&a.substitute(NAMES[v], &b), &ma.substitute(NAMES[v], &mb))?;
        if !a.mentions(NAMES[w]) {
            agrees(&a.rename(NAMES[v], NAMES[w]), &ma.rename(NAMES[v], NAMES[w]))?;
        }
    }
}

// The box kernel: unions of parameter-free boxes (every constraint bounds
// one tuple variable) are intersected, subtracted, mapped and boxed on
// their bounds. Each operation is checked against brute-force enumeration
// and against the constraint path, which the same operands take once every
// disjunct also says `n ≥ 0` of a parameter `n` (evaluated at `n = 0`).

const BOX_VARS: [&str; 3] = ["i", "j", "k"];
const OUT_VARS: [&str; 3] = ["e0", "e1", "e2"];
/// Input window: holds every preimage of an output-window point under a
/// shift of at most 2, and a witness of every non-empty box dimension.
const IN_W: i64 = 10;
/// Output window: covers every finite bound (−4..4) moved by a shift.
const OUT_W: i64 = 8;

/// Every point of `[-w, w]^n`.
fn cube(n: usize, w: i64) -> Vec<Vec<i64>> {
    let mut pts = vec![vec![]];
    for _ in 0..n {
        pts = (pts.iter())
            .flat_map(|p| {
                (-w..=w).map(move |x| {
                    let mut q = p.clone();
                    q.push(x);
                    q
                })
            })
            .collect();
    }
    pts
}

fn at_n0(v: &str) -> Option<i64> {
    (v == "n").then_some(0)
}

fn has(s: &Set, p: &[i64]) -> bool {
    s.contains(p, &at_n0)
}

/// One bound on `v` in one of the forms the compiler writes: `v ≥ c`,
/// `v ≤ c`, `v = c` with either sign of `v`, and `2v ≥ 2c - 1`, which
/// normalization tightens to `v ≥ c`.
fn box_constraint(v: &str, form: u8, c: i64) -> Constraint {
    let (x, k) = (LinExpr::var(v), LinExpr::cst(c));
    match form {
        0 => Constraint::ge(x, k),
        1 => Constraint::le(x, k),
        2 => Constraint::eq(x, k),
        3 => Constraint::eq(k, x),
        _ => Constraint::ge0(LinExpr::term(v, 2) - (2 * c - 1)),
    }
}

/// A union of 0–3 boxes of 0–5 bounds each, as `(dimension, form, bound)`
/// with bounds in −4..4: one-sided and unbounded boxes, equalities, empty
/// boxes (crossing bounds) and repeated bounds all occur.
type RawSet = Vec<Vec<(usize, u8, i64)>>;

fn raw_box_set() -> impl Strategy<Value = RawSet> {
    prop::collection::vec(
        prop::collection::vec((0usize..3, 0u8..=4, -4i64..=4), 0..=5),
        0..=3,
    )
}

fn box_set(raw: &RawSet, n: usize) -> Set {
    let space = &BOX_VARS[..n];
    let mut s = Set::empty(space);
    for b in raw {
        let p = Polyhedron::new(
            b.iter()
                .map(|&(d, f, c)| box_constraint(space[d % n], f, c)),
        );
        s = s.union_uncached(&Set::from_poly(space, p));
    }
    s
}

/// `s` with `n ≥ 0` in every disjunct: the same points at `n = 0`, but
/// not parameter-free, so every operation on it takes the constraint path.
fn on_constraint_path(s: &Set) -> Set {
    let n = Polyhedron::new([Constraint::ge0(LinExpr::var("n"))]);
    let mut out = Set::empty(s.space());
    for p in s.polys() {
        out = out.union_uncached(&Set::from_poly(s.space(), p.intersect(&n)));
    }
    out
}

/// The non-empty disjuncts of `s` as point sets in the window, each
/// once, in order. (The constraint path keeps an operand's empty
/// disjuncts where nothing is subtracted from them; the kernel drops them.)
fn pieces(s: &Set) -> Vec<Vec<Vec<i64>>> {
    let pts = cube(s.arity(), IN_W);
    let mut out: Vec<Vec<Vec<i64>>> = Vec::new();
    for p in s.polys() {
        let one = Set::from_poly(s.space(), p.clone());
        let piece: Vec<Vec<i64>> = pts.iter().filter(|x| has(&one, x)).cloned().collect();
        if !piece.is_empty() && !out.contains(&piece) {
            out.push(piece);
        }
    }
    out
}

/// A map `[i..] → [e..]` whose outputs are constants or `±x + c` of
/// distinct inputs: `perm` picks the inputs, `outs` each output's kind
/// (0 constant, 1 `+x`, 2 `-x`) and constant in −2..2.
fn box_map(n: usize, m: usize, perm: usize, outs: &[(u8, i64)]) -> Map {
    let mut inputs: Vec<&str> = BOX_VARS[..n].to_vec();
    inputs.rotate_left(perm % n);
    if perm / n % 2 == 1 {
        inputs.reverse();
    }
    let outputs = (0..m)
        .map(|o| {
            let (kind, c) = outs[o];
            match (kind, inputs.get(o)) {
                (1, Some(x)) => LinExpr::var(x) + c,
                (2, Some(x)) => LinExpr::term(x, -1) + c,
                _ => LinExpr::cst(c),
            }
        })
        .collect();
    Map::new(&BOX_VARS[..n], &OUT_VARS[..m], outputs)
}

/// The image of `s` under `map`, enumerated: every window point of `s`
/// mapped, parameters of the map bound by `params`.
fn brute_image(map: &Map, s: &Set, params: &dyn Fn(&str) -> Option<i64>) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = (cube(s.arity(), IN_W).iter())
        .filter(|x| has(s, x))
        .map(|x| map.eval(x, params).expect("bound map"))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// `img` holds exactly the output-window points of `expect`.
fn image_is(img: &Set, expect: &[Vec<i64>], params: &dyn Fn(&str) -> Option<i64>) -> bool {
    (cube(img.arity(), OUT_W).iter())
        .all(|y| img.contains(y, params) == expect.binary_search(y).is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// ∩ and ∖ of boxes are exact on every window point, give the
    /// constraint path's pieces in the constraint path's order, are their
    /// own cache-bypassing variants, and are emitted in a canonical form
    /// (intersecting with the universe changes nothing).
    #[test]
    fn box_intersect_and_subtract_match_enumeration_and_the_constraint_path(
        n in 1usize..=3,
        ra in raw_box_set(),
        rb in raw_box_set(),
    ) {
        let (a, b) = (box_set(&ra, n), box_set(&rb, n));
        let (meet, diff) = (a.intersect(&b), a.subtract(&b));
        for p in cube(n, IN_W) {
            let (ina, inb) = (has(&a, &p), has(&b, &p));
            prop_assert!(has(&meet, &p) == (ina && inb), "∩ wrong at {p:?}: {a:?} ∩ {b:?} = {meet:?}");
            prop_assert!(has(&diff, &p) == (ina && !inb), "∖ wrong at {p:?}: {a:?} ∖ {b:?} = {diff:?}");
        }
        let slow = on_constraint_path(&a);
        prop_assert_eq!(pieces(&diff), pieces(&slow.subtract(&b)));
        prop_assert_eq!(pieces(&meet), pieces(&slow.intersect(&b)));
        prop_assert_eq!(&diff, &a.subtract_uncached(&b));
        prop_assert_eq!(&meet, &a.intersect_uncached(&b));
        let all = Set::universe(&BOX_VARS[..n]);
        prop_assert_eq!(&diff.intersect(&all), &diff);
        prop_assert_eq!(&meet.intersect(&all), &meet);
    }

    /// The image of boxes through constants, shifts, negations and
    /// permutations is exactly the enumerated image, point for point
    /// equal to the constraint path's.
    #[test]
    fn box_images_match_enumeration_and_the_constraint_path(
        n in 1usize..=3,
        m in 1usize..=3,
        ra in raw_box_set(),
        perm in 0usize..6,
        outs in prop::collection::vec((0u8..=2, -2i64..=2), 3),
    ) {
        let a = box_set(&ra, n);
        let map = box_map(n, m, perm, &outs);
        let expect = brute_image(&map, &a, &at_n0);
        let img = map.apply(&a);
        prop_assert!(image_is(&img, &expect, &at_n0), "{map:?} of {a:?} = {img:?}, expected {expect:?}");
        let slow = map.apply(&on_constraint_path(&a));
        prop_assert!(image_is(&slow, &expect, &at_n0), "constraint path {slow:?}");
        let all = Set::universe(&OUT_VARS[..m]);
        prop_assert_eq!(&img.intersect(&all), &img);
    }

    /// The bounding box of boxes is the enumerated one, and the constraint
    /// path's: `None` for no point or an unbounded non-empty box.
    #[test]
    fn box_bounding_box_matches_enumeration_and_the_constraint_path(
        n in 1usize..=3,
        ra in raw_box_set(),
    ) {
        let a = box_set(&ra, n);
        let bb = bounding_box(&a, &|_| None);
        prop_assert_eq!(&bb, &bounding_box(&on_constraint_path(&a), &at_n0));
        let pts: Vec<Vec<i64>> = cube(n, IN_W).into_iter().filter(|p| has(&a, p)).collect();
        if let Some(bb) = bb {
            for (d, &(lo, hi)) in bb.iter().enumerate() {
                prop_assert_eq!(Some(lo), pts.iter().map(|p| p[d]).min());
                prop_assert_eq!(Some(hi), pts.iter().map(|p| p[d]).max());
            }
        } else {
            let unbounded = a.polys().iter().any(|p| {
                let one = Set::from_poly(a.space(), p.clone());
                pts.iter().any(|x| has(&one, x) && x.iter().any(|v| v.abs() >= 5))
            });
            prop_assert!(pts.is_empty() || unbounded, "no box for the points {pts:?} of {a:?}");
        }
    }

    /// Maps outside the kernel — a coefficient of 2, two inputs in one
    /// output, an input used twice, a parameter — take the constraint
    /// path: the image is the projection of the map's graph, holds every
    /// enumerated image point, and is exactly those where every output is
    /// a shifted input (a sum's preimages can leave the input window).
    #[test]
    fn non_box_maps_take_the_constraint_path(
        ra in raw_box_set(),
        kind in 0u8..4,
        c in -2i64..=2,
    ) {
        let a = box_set(&ra, 2);
        let (i, j) = (LinExpr::var("i"), LinExpr::var("j"));
        let outputs = match kind {
            0 => vec![LinExpr::term("i", 2) + c, j],
            1 => vec![i.clone() + j, LinExpr::cst(c)],
            2 => vec![i.clone() + c, i],
            _ => vec![i + LinExpr::var("q"), j + c],
        };
        let map = Map::new(&BOX_VARS[..2], &OUT_VARS[..2], outputs);
        let params = |v: &str| match v {
            "q" => Some(c),
            v => at_n0(v),
        };
        let expect = brute_image(&map, &a, &params);
        let img = map.apply(&a);
        let graph = map.graph(&a).project_onto(&OUT_VARS[..2]);
        for y in cube(2, OUT_W) {
            prop_assert!(img.contains(&y, &params) == graph.contains(&y, &params), "{map:?} at {y:?}");
            if expect.binary_search(&y).is_ok() {
                prop_assert!(img.contains(&y, &params), "{map:?} lost {y:?} of {a:?}");
            }
        }
        if kind >= 2 {
            prop_assert!(image_is(&img, &expect, &params), "{map:?} of {a:?} = {img:?}");
        }
    }
}
