//! The one description of a message (§7): rectangular array sections
//! moving between one processor pair, packed back-to-back into one
//! physical transfer.
//!
//! The planner ([`crate::comm`]) produces [`Transfer`]s keyed by array
//! name, code generation rebinds them to local array slots, the protocol
//! extractor to global array ids; the interpreter sends and unpacks
//! them. There is one packing rule, [`pack_per_peer`]: without
//! aggregation every transfer carries one segment, with it one transfer
//! per `(from, to)` pair carries them all. The derived order of
//! [`Seg`] and [`Transfer`] — `(arr, lo, hi)`, then `(from, to, segs)` —
//! is the canonical one: sender and receiver walk the segments in it, so
//! it is the wire layout and no header travels with the data.

use dhpf_spmd::array::section_len;

/// An inclusive rectangular section of an array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    pub lo: Vec<i64>,
    pub hi: Vec<i64>,
}

impl Region {
    pub fn len(&self) -> usize {
        section_len(&self.lo, &self.hi)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn dims<'a>(&'a self, other: &'a Region) -> impl Iterator<Item = [i64; 4]> + 'a {
        let mine = self.lo.iter().zip(&self.hi);
        let theirs = other.lo.iter().zip(&other.hi);
        mine.zip(theirs)
            .map(|((al, ah), (bl, bh))| [*al, *ah, *bl, *bh])
    }

    /// Intersection with another region of the same rank.
    pub fn intersect(&self, other: &Region) -> Region {
        Region {
            lo: self.dims(other).map(|[al, _, bl, _]| al.max(bl)).collect(),
            hi: self.dims(other).map(|[_, ah, _, bh]| ah.min(bh)).collect(),
        }
    }

    /// Whether the two regions share an element.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.dims(other)
            .all(|[al, ah, bl, bh]| al.max(bl) <= ah.min(bh))
    }

    /// Whether every element of `other` is in `self`.
    pub fn contains(&self, other: &Region) -> bool {
        other.is_empty()
            || self
                .dims(other)
                .all(|[al, ah, bl, bh]| al <= bl && bh <= ah)
    }

    /// `self \ other` as disjoint non-empty boxes.
    pub fn subtract(&self, other: &Region) -> Vec<Region> {
        if self.is_empty() {
            return Vec::new();
        }
        if !self.overlaps(other) {
            return vec![self.clone()];
        }
        let mut out = Vec::new();
        let mut rest = self.clone();
        for d in 0..rest.lo.len() {
            if other.lo[d] > rest.lo[d] {
                let mut below = rest.clone();
                below.hi[d] = other.lo[d] - 1;
                out.push(below);
                rest.lo[d] = other.lo[d];
            }
            if other.hi[d] < rest.hi[d] {
                let mut above = rest.clone();
                above.lo[d] = other.hi[d] + 1;
                out.push(above);
                rest.hi[d] = other.hi[d];
            }
        }
        // what remains of `rest` lies inside `other`
        out
    }

    /// `self` less every region of `others`, as disjoint non-empty boxes.
    pub fn subtract_all(&self, others: impl IntoIterator<Item = Region>) -> Vec<Region> {
        let mut pieces = vec![self.clone()];
        for o in others {
            pieces = pieces.iter().flat_map(|p| p.subtract(&o)).collect();
        }
        pieces.retain(|p| !p.is_empty());
        pieces
    }

    /// The union, when it is a box: the regions differ along at most one
    /// dimension and overlap or abut there.
    pub fn try_merge(&self, other: &Region) -> Option<Region> {
        let mut differing =
            (0..self.lo.len()).filter(|&d| (self.lo[d], self.hi[d]) != (other.lo[d], other.hi[d]));
        let Some(d) = differing.next() else {
            return Some(self.clone());
        };
        if differing.next().is_some() {
            return None;
        }
        (self.hi[d] + 1 >= other.lo[d] && other.hi[d] + 1 >= self.lo[d]).then(|| {
            let mut m = self.clone();
            m.lo[d] = self.lo[d].min(other.lo[d]);
            m.hi[d] = self.hi[d].max(other.hi[d]);
            m
        })
    }
}

/// One array section of a transfer, in global array coordinates. `K` is
/// how the holder names the array: `String` in a plan, a local array
/// slot in a node program, a global array id in an extracted protocol.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Seg<K> {
    pub arr: K,
    pub lo: Vec<i64>,
    pub hi: Vec<i64>,
}

impl<K> Seg<K> {
    pub fn new(arr: K, region: Region) -> Self {
        Seg {
            arr,
            lo: region.lo,
            hi: region.hi,
        }
    }

    pub fn region(&self) -> Region {
        Region {
            lo: self.lo.clone(),
            hi: self.hi.clone(),
        }
    }

    /// Element count of the section.
    pub fn elems(&self) -> usize {
        section_len(&self.lo, &self.hi)
    }
}

/// One physical message: `from` sends the segments, packed in order, to
/// `to`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Transfer<K> {
    pub from: usize,
    pub to: usize,
    pub segs: Vec<Seg<K>>,
}

impl<K> Transfer<K> {
    /// Total element count over all segments.
    pub fn elems(&self) -> usize {
        self.segs.iter().map(Seg::elems).sum()
    }

    /// The same transfer with its arrays named through `key`; a segment
    /// whose array has no name there is left out.
    pub fn rebind<J>(&self, mut key: impl FnMut(&K) -> Option<J>) -> Transfer<J> {
        let rebound = |s: &Seg<K>| {
            key(&s.arr).map(|arr| Seg {
                arr,
                lo: s.lo.clone(),
                hi: s.hi.clone(),
            })
        };
        Transfer {
            from: self.from,
            to: self.to,
            segs: self.segs.iter().filter_map(rebound).collect(),
        }
    }
}

/// Pack `(from, to, segment)` triples into transfers in canonical order.
/// With `aggregate` all segments of a pair travel in one transfer;
/// without it every segment is a transfer of its own.
pub fn pack_per_peer<K: Ord>(
    mut flat: Vec<(usize, usize, Seg<K>)>,
    aggregate: bool,
) -> Vec<Transfer<K>> {
    flat.sort();
    let mut out: Vec<Transfer<K>> = Vec::new();
    for (from, to, seg) in flat {
        match out.last_mut() {
            Some(last) if aggregate && (last.from, last.to) == (from, to) => last.segs.push(seg),
            _ => out.push(Transfer {
                from,
                to,
                segs: vec![seg],
            }),
        }
    }
    out
}

/// Every segment of `transfers` with its endpoints, in order.
pub fn segments<K>(transfers: &[Transfer<K>]) -> impl Iterator<Item = (usize, usize, &Seg<K>)> {
    transfers
        .iter()
        .flat_map(|t| t.segs.iter().map(move |s| (t.from, t.to, s)))
}

/// Take segment `s` out of transfer `t`; a transfer left with nothing to
/// carry goes too.
pub fn remove_seg<K>(transfers: &mut Vec<Transfer<K>>, t: usize, s: usize) -> Seg<K> {
    let seg = transfers[t].segs.remove(s);
    if transfers[t].segs.is_empty() {
        transfers.remove(t);
    }
    seg
}

/// Positions `(transfer, segment)` of the segments that deliver an
/// element no other segment delivers to the same receiver: leaving one
/// out leaves that element stale.
pub fn sole_deliveries<K: PartialEq>(transfers: &[Transfer<K>]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (t, x) in transfers.iter().enumerate() {
        for (s, seg) in x.segs.iter().enumerate() {
            let others = segments(transfers)
                .filter(|(_, to, o)| {
                    !std::ptr::eq(*o, seg)
                        && *to == x.to
                        && o.arr == seg.arr
                        && o.lo.len() == seg.lo.len()
                })
                .map(|(_, _, o)| o.region());
            if !seg.region().subtract_all(others).is_empty() {
                out.push((t, s));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn region(lo: &[i64], hi: &[i64]) -> Region {
        Region {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
        }
    }

    /// Two boxes of the same rank 1–3; an extent of −1 makes one empty.
    fn arb_pair() -> impl Strategy<Value = (Region, Region)> {
        let side = || (0i64..5, -1i64..4);
        prop::collection::vec((side(), side()), 1..4).prop_map(|dims| {
            let region = |sides: Vec<(i64, i64)>| Region {
                lo: sides.iter().map(|(lo, _)| *lo).collect(),
                hi: sides.iter().map(|(lo, extent)| lo + extent).collect(),
            };
            let (a, b) = dims.into_iter().unzip();
            (region(a), region(b))
        })
    }

    /// Elements of `a ∪ b`.
    fn union_len(a: &Region, b: &Region) -> usize {
        a.len() + b.len() - a.intersect(b).len()
    }

    fn check_subtract(a: &Region, b: &Region) -> Result<(), String> {
        let pieces = a.subtract(b);
        let rest: usize = pieces.iter().map(Region::len).sum();
        prop_assert_eq!(a.len(), a.intersect(b).len() + rest);
        for (i, p) in pieces.iter().enumerate() {
            prop_assert!(!p.is_empty() && a.contains(p) && !p.overlaps(b));
            prop_assert!(pieces[i + 1..].iter().all(|q| !p.overlaps(q)));
        }
        Ok(())
    }

    #[test]
    fn subtract_of_a_disjoint_and_of_a_containing_box() {
        let a = region(&[1, 1], &[4, 4]);
        assert_eq!(a.subtract(&region(&[6, 6], &[9, 9])), vec![a.clone()]);
        assert!(region(&[2, 2], &[3, 3]).subtract(&a).is_empty());
        check_subtract(&a, &region(&[3, 3], &[6, 6])).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn subtract_tiles_the_difference((a, b) in arb_pair()) {
            check_subtract(&a, &b)?;
            let all = a.subtract_all([b.clone(), a.intersect(&b)]);
            prop_assert_eq!(all.iter().map(Region::len).sum::<usize>(), a.len() - a.intersect(&b).len());
        }

        #[test]
        fn overlap_containment_and_merge_agree_with_intersection((a, b) in arb_pair()) {
            prop_assert_eq!(a.overlaps(&b), !a.intersect(&b).is_empty());
            prop_assert_eq!(a.contains(&b), a.intersect(&b).len() == b.len());
            if let Some(m) = a.try_merge(&b) {
                prop_assert_eq!(m.len(), union_len(&a, &b));
                prop_assert!(m.contains(&a) && m.contains(&b));
            }
        }
    }

    #[test]
    fn merge_needs_one_differing_dimension_that_abuts() {
        let a = region(&[1, 1], &[4, 1]);
        assert_eq!(
            a.try_merge(&region(&[1, 2], &[4, 2])),
            Some(region(&[1, 1], &[4, 2]))
        );
        assert_eq!(a.try_merge(&region(&[1, 4], &[4, 4])), None);
        assert_eq!(a.try_merge(&region(&[2, 2], &[5, 2])), None);
    }

    #[test]
    fn region_containment() {
        let window = region(&[1, 1], &[4, 4]);
        assert!(window.contains(&region(&[2, 2], &[3, 3])));
        assert!(!window.contains(&region(&[0, 2], &[3, 3])));
        // empty regions are contained in anything
        assert!(region(&[1], &[2]).contains(&region(&[5], &[4])));
    }

    #[test]
    fn packs_per_peer_only_when_enabled() {
        let seg = |arr, lo, hi| Seg::new(arr, region(&[lo], &[hi]));
        let flat = vec![
            (0, 1, seg(1, 5, 6)),
            (1, 0, seg(0, 9, 9)),
            (0, 1, seg(0, 1, 2)),
        ];
        let packed = pack_per_peer(flat.clone(), true);
        assert_eq!(packed.len(), 2, "0->1 packs into one transfer");
        assert_eq!(packed[0].segs, vec![seg(0, 1, 2), seg(1, 5, 6)]);
        assert_eq!(pack_per_peer(flat, false).len(), 3);
    }

    #[test]
    fn sole_deliveries_skip_covered_segments_and_removal_drops_empty_transfers() {
        let seg = |lo, hi| Seg::new("a", region(&[lo], &[hi]));
        // 0→2 delivers 1..4; 1→2 delivers 2..3 (covered) and 6..6 (not)
        let flat = vec![(0, 2, seg(1, 4)), (1, 2, seg(2, 3)), (1, 2, seg(6, 6))];
        let mut packed = pack_per_peer(flat, true);
        assert_eq!(sole_deliveries(&packed), vec![(0, 0), (1, 1)]);
        assert_eq!(remove_seg(&mut packed, 0, 0), seg(1, 4));
        assert_eq!(packed.len(), 1);
        assert_eq!(sole_deliveries(&packed), vec![(0, 0), (0, 1)]);
    }
}
