//! The SPMD node-program interpreter: executes a compiled
//! [`NodeProgram`] on the virtual machine, one host thread per simulated
//! processor, with real numerics and virtual-time charging.
//!
//! Each rank lowers the program once to linear code (`exec::tape`)
//! specialised to what it owns, then runs that tape; the
//! communication ops keep their message logic here and run their nests
//! as tape ranges.

use crate::codegen::NodeProgram;
use crate::exec::serial::ArrayValue;
pub use crate::exec::tape::LowerStats;
use crate::exec::tape::{
    lower_program, unbound_dummy, Comm, Ins, Overlap, Pipe, Site, Tape, UNBOUND,
};
use crate::transfer::{Seg, Transfer};
use dhpf_spmd::array::LocalArray;
use dhpf_spmd::machine::{Machine, MachineConfig, Proc, RunResult};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Execution error: configuration mismatches (wrong machine size) and
/// runtime storage/protocol violations (unbound array dummies, accesses
/// to unowned storage, payloads that do not fit their transfer). All are returned
/// as `Err` from [`run_node_program`] rather than panicking the process.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError(pub String);

/// Abort this rank's execution with a structured [`ExecError`]. The
/// payload unwinds through the virtual machine — which wakes the peer
/// ranks — and is caught by [`run_node_program`] and returned as `Err`.
pub(super) fn exec_fail(msg: String) -> ! {
    std::panic::panic_any(ExecError(msg))
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exec: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// Result of a parallel run.
#[derive(Debug)]
pub struct ExecResult {
    /// Virtual-machine outcome (virtual time, traces, message stats).
    pub run: RunResult,
    /// Stitched global arrays (distributed: owner data; serial: rank 0).
    pub arrays: BTreeMap<String, ArrayValue>,
    /// What each rank's lowering decided and how far its loops ran.
    pub ranks: Vec<RankCounts>,
}

/// One rank's deterministic work counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankCounts {
    pub lower: LowerStats,
    /// Loop iterations started, summed over every loop entry.
    pub loop_trips: u64,
}

/// What the lowering for rank `rank` decides in each unit it lowers, by
/// unit name, the main unit first; a unit called with two bindings of
/// its array dummies is lowered, and listed, twice. Nothing is run.
pub fn lower_census(prog: &NodeProgram, rank: usize) -> Vec<(String, LowerStats)> {
    let st = ProcState::new(prog, rank);
    let (tapes, _) = lower_program(&st);
    let census = tapes.iter().map(|t| (t.unit.name.clone(), t.stats));
    census.collect()
}

/// Run a node program on `nprocs = grid.nprocs()` virtual processors.
pub fn run_node_program(
    prog: &NodeProgram,
    machine: MachineConfig,
) -> Result<ExecResult, ExecError> {
    let nprocs = prog.grid.nprocs() as usize;
    if machine.nprocs != nprocs {
        return Err(ExecError(format!(
            "machine has {} procs but program was compiled for {nprocs}",
            machine.nprocs
        )));
    }
    // Every rank's storage is allocated here, on the calling thread, and
    // lent to the rank's thread for the run. Allocated on the short-lived
    // rank threads, the arrays would come from one malloc arena per thread,
    // and those arenas keep the freed arrays resident run after run.
    let states: Vec<Mutex<Option<ProcState>>> = (0..nprocs)
        .map(|rank| Mutex::new(Some(ProcState::new(prog, rank))))
        .collect();

    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Machine::run(machine, |proc| {
            let slot = &states[proc.rank()];
            let taken = slot.lock().expect("no rank panics holding its slot").take();
            let mut st = taken.expect("the machine runs each rank once");
            let (tapes, lower) = lower_program(&st);
            st.counts.lower = lower;
            let main = &tapes[0];
            let mut frame = Frame::new(main);
            let whole = (0, main.code.len());
            st.run(proc, &tapes, main, &mut frame.ints, &mut frame.regs, whole);
            *slot.lock().expect("no rank panics holding its slot") = Some(st);
        })
    }));
    let run = match run {
        Ok(run) => run,
        // A rank aborted with a structured error (the machine already
        // woke its peers): surface it as Err instead of a panic.
        Err(payload) => match payload.downcast::<ExecError>() {
            Ok(e) => return Err(*e),
            Err(other) => std::panic::resume_unwind(other),
        },
    };

    // stitch global arrays back together
    let (ranks, finals): (Vec<RankCounts>, Vec<Vec<Option<LocalArray>>>) = states
        .into_iter()
        .map(|slot| {
            let st = slot.into_inner().expect("no rank panics holding its slot");
            let st = st.expect("every rank returned its state");
            (st.counts, st.storage)
        })
        .unzip();
    let mut arrays = BTreeMap::new();
    for (g, ga) in prog.arrays.iter().enumerate() {
        let lo: Vec<i64> = ga.bounds.iter().map(|b| b.0).collect();
        let hi: Vec<i64> = ga.bounds.iter().map(|b| b.1).collect();
        let mut out = ArrayValue::new(lo.clone(), hi.clone());
        match &ga.dist {
            None => {
                if let Some(local) = &finals[0][g] {
                    copy_box(local, &mut out, &lo, &hi);
                }
            }
            Some(dist) => {
                for (rank, storage) in finals.iter().enumerate() {
                    let coords = prog.grid.coords(rank as i64);
                    let Some(owned) = dist.owned_box(&coords) else {
                        continue;
                    };
                    if let Some(local) = &storage[g] {
                        let olo: Vec<i64> = owned.iter().map(|b| b.0).collect();
                        let ohi: Vec<i64> = owned.iter().map(|b| b.1).collect();
                        copy_box(local, &mut out, &olo, &ohi);
                    }
                }
            }
        }
        arrays.insert(ga.name.clone(), out);
    }
    // alias unit-qualified names ("main::a") by their bare name when
    // unambiguous, so callers can look up `arrays["a"]`
    let qualified: Vec<String> = arrays
        .keys()
        .filter(|k| k.contains("::"))
        .cloned()
        .collect();
    for q in qualified {
        let bare = q.rsplit("::").next().unwrap_or(&q).to_string();
        if !arrays.contains_key(&bare) {
            let v = arrays[&q].clone();
            arrays.insert(bare, v);
        }
    }
    Ok(ExecResult { run, arrays, ranks })
}

fn copy_box(src: &LocalArray, dst: &mut ArrayValue, lo: &[i64], hi: &[i64]) {
    let mut idx = lo.to_vec();
    if idx.iter().zip(hi).any(|(l, h)| l > h) {
        return;
    }
    loop {
        dst.set(&idx, src.get(&idx));
        let mut d = 0;
        loop {
            if d == idx.len() {
                return;
            }
            idx[d] += 1;
            if idx[d] <= hi[d] {
                break;
            }
            idx[d] = lo[d];
            d += 1;
        }
    }
}

/// Per-call frame.
struct Frame {
    /// Integer scalar slots, then the tape's hidden slots.
    ints: Vec<i64>,
    /// Float scalar slots, then the tape's constants, then the values of
    /// the block being run.
    regs: Vec<f64>,
}

impl Frame {
    fn new(tape: &Tape) -> Self {
        let mut regs = Vec::with_capacity(tape.n_regs);
        regs.resize(tape.unit.n_floats, 0.0);
        regs.extend_from_slice(&tape.consts);
        regs.resize(tape.n_regs, 0.0);
        Frame {
            ints: vec![0; tape.n_ints],
            regs,
        }
    }
}

/// Whether a `do` loop at value `v` still has a trip to run.
#[inline]
fn in_range(v: i64, hi: i64, step: i64) -> bool {
    (step > 0 && v <= hi) || (step < 0 && v >= hi)
}

/// Trips of the non-empty range `lo, hi` by `step`, less one.
#[inline]
fn more_trips(lo: i64, hi: i64, step: i64) -> i64 {
    match step {
        1 => hi - lo,
        -1 => lo - hi,
        _ => (hi - lo) / step,
    }
}

/// Per-processor interpreter state.
pub(super) struct ProcState<'p> {
    pub prog: &'p NodeProgram,
    pub rank: usize,
    pub coords: Vec<i64>,
    pub storage: Vec<Option<LocalArray>>,
    /// Owned range per global array per dim (serial dims: full bounds;
    /// empty ownership: `(1, 0)`).
    pub owned: Vec<Vec<(i64, i64)>>,
    pub counts: RankCounts,
}

impl<'p> ProcState<'p> {
    pub fn new(prog: &'p NodeProgram, rank: usize) -> Self {
        let coords = prog.grid.coords(rank as i64);
        let mut storage = Vec::with_capacity(prog.arrays.len());
        let mut owned = Vec::with_capacity(prog.arrays.len());
        for ga in &prog.arrays {
            match &ga.dist {
                None => {
                    let lo: Vec<i64> = ga.bounds.iter().map(|b| b.0).collect();
                    let hi: Vec<i64> = ga.bounds.iter().map(|b| b.1).collect();
                    storage.push(Some(LocalArray::new(&lo, &hi, &vec![0; lo.len()])));
                    owned.push(ga.bounds.clone());
                }
                Some(dist) => match dist.owned_box(&coords) {
                    Some(ob) => {
                        let lo: Vec<i64> = ob.iter().map(|b| b.0).collect();
                        let hi: Vec<i64> = ob.iter().map(|b| b.1).collect();
                        storage.push(Some(LocalArray::new(&lo, &hi, &ga.ghost)));
                        owned.push(ob);
                    }
                    None => {
                        storage.push(None);
                        owned.push(vec![(1, 0); ga.bounds.len()]);
                    }
                },
            }
        }
        ProcState {
            prog,
            rank,
            coords,
            storage,
            owned,
            counts: RankCounts::default(),
        }
    }

    /// Resolve a unit-local array slot to its global array id, failing
    /// with a structured error when the slot is an unbound dummy.
    fn global_of(&self, binding: &[usize], arr: usize) -> usize {
        let g = binding[arr];
        if g == UNBOUND {
            exec_fail(unbound_dummy(self.rank, arr));
        }
        g
    }

    /// The data an access site reads or writes. Accesses to storage this
    /// rank does not allocate were lowered to `Fail`, never to a site.
    #[inline]
    fn local(&self, s: &Site) -> &LocalArray {
        self.storage[s.arr as usize]
            .as_ref()
            .expect("access sites name allocated arrays")
    }

    /// Debug builds re-check every subscript of an access against the
    /// allocated window — a folded offset can stay inside the data slice
    /// while a subscript is outside its dimension — at the values the
    /// variables of unrolled loops are pinned to in the site, and the
    /// base of a based access against its whole offset.
    #[cfg(debug_assertions)]
    fn check_window(&self, t: &Tape, site: u32, ints: &[i64], verb: &str) {
        use crate::codegen::CIdx;
        let s = &t.sites[site as usize];
        if s.base != super::tape::NO_BASE {
            let whole = t.eval(s.off, ints) as usize;
            assert_eq!(s.at(ints), whole, "rank {}: base of a site", self.rank);
        }
        let (subs, (first, end)) = t.unfolded[site as usize];
        let pins = &t.pins[first as usize..end as usize];
        let value = |slot: usize| match pins.iter().find(|(pin, _)| *pin as usize == slot) {
            Some((_, v)) => *v,
            None => ints[slot],
        };
        let at =
            |sub: &CIdx| (sub.terms.iter()).fold(sub.cst, |acc, &(slot, c)| acc + c * value(slot));
        let local = self.local(s);
        let inside = subs.len() == local.rank()
            && (subs.iter().enumerate()).all(|(d, sub)| local.dim_in_window(d, at(sub)));
        assert!(
            inside,
            "rank {} {verb} {}{:?} outside window [{:?}..{:?}]",
            self.rank,
            self.prog.arrays[s.arr as usize].name,
            subs.iter().map(at).collect::<Vec<_>>(),
            local.alloc_lo(),
            local.alloc_hi()
        );
    }

    /// Release builds check nothing, and keep nothing to check with.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn check_window(&self, _: &Tape, _: u32, _: &[i64], _: &str) {}

    /// Read based site `site`.
    #[inline]
    fn read(&self, t: &Tape, site: u32, ints: &[i64]) -> f64 {
        self.check_window(t, site, ints, "reads");
        let s = &t.sites[site as usize];
        self.local(s).data()[s.at(ints)]
    }

    /// Write based site `site`.
    #[inline]
    fn write(&mut self, t: &Tape, site: u32, ints: &[i64], v: f64) {
        self.check_window(t, site, ints, "writes");
        let s = &t.sites[site as usize];
        let local = self.storage[s.arr as usize]
            .as_mut()
            .expect("access sites name allocated arrays");
        local.data_mut()[s.at(ints)] = v;
    }

    /// Execute `t.code[range]` on one frame. Statement instances run in
    /// program order, each charging its flops with one `work()` call
    /// after its store, and every float operation is applied in the
    /// order the expression tree prescribes: virtual time and numerics
    /// do not depend on how the program was lowered.
    fn run(
        &mut self,
        proc: &mut Proc,
        tapes: &[Tape<'p>],
        t: &Tape<'p>,
        ints: &mut [i64],
        regs: &mut [f64],
        (start, end): (usize, usize),
    ) {
        macro_rules! r {
            ($i:expr) => {
                regs[$i as usize]
            };
        }
        let code = &t.code[..end];
        let mut pc = start;
        while let Some(ins) = code.get(pc) {
            pc += 1;
            match *ins {
                Ins::Add(d, a, b) => r!(d) = r!(a) + r!(b),
                Ins::Sub(d, a, b) => r!(d) = r!(a) - r!(b),
                Ins::Mul(d, a, b) => r!(d) = r!(a) * r!(b),
                Ins::Div(d, a, b) => r!(d) = r!(a) / r!(b),
                Ins::Pow(d, a, b) => r!(d) = r!(a).powf(r!(b)),
                Ins::Lt(d, a, b) => r!(d) = f64::from(r!(a) < r!(b)),
                Ins::Le(d, a, b) => r!(d) = f64::from(r!(a) <= r!(b)),
                Ins::Gt(d, a, b) => r!(d) = f64::from(r!(a) > r!(b)),
                Ins::Ge(d, a, b) => r!(d) = f64::from(r!(a) >= r!(b)),
                Ins::Eq(d, a, b) => r!(d) = f64::from(r!(a) == r!(b)),
                Ins::Ne(d, a, b) => r!(d) = f64::from(r!(a) != r!(b)),
                Ins::Min(d, a, b) => r!(d) = r!(a).min(r!(b)),
                Ins::Max(d, a, b) => r!(d) = r!(a).max(r!(b)),
                Ins::Mod(d, a, b) => r!(d) = r!(a) % r!(b),
                Ins::Sign(d, a, b) => r!(d) = r!(a).abs() * r!(b).signum(),
                Ins::Neg(d, a) => r!(d) = -r!(a),
                Ins::Abs(d, a) => r!(d) = r!(a).abs(),
                Ins::Sqrt(d, a) => r!(d) = r!(a).sqrt(),
                Ins::Exp(d, a) => r!(d) = r!(a).exp(),
                Ins::Trunc(d, a) => r!(d) = r!(a).trunc(),
                Ins::Sin(d, a) => r!(d) = r!(a).sin(),
                Ins::Cos(d, a) => r!(d) = r!(a).cos(),
                Ins::Truth { d, a } => r!(d) = f64::from(r!(a) != 0.0),
                Ins::AndSkip { d, a, to } => {
                    if r!(a) == 0.0 {
                        r!(d) = 0.0;
                        pc = to as usize;
                    }
                }
                Ins::OrSkip { d, a, to } => {
                    if r!(a) != 0.0 {
                        r!(d) = 1.0;
                        pc = to as usize;
                    }
                }
                Ins::IntToF { d, aff } => r!(d) = t.eval(aff, ints) as f64,
                Ins::Load { d, site } => {
                    self.check_window(t, site, ints, "reads");
                    let s = &t.sites[site as usize];
                    r!(d) = self.local(s).data()[t.eval(s.off, ints) as usize];
                }
                Ins::Store { site, src, flops } => {
                    self.check_window(t, site, ints, "writes");
                    let s = &t.sites[site as usize];
                    let local = self.storage[s.arr as usize]
                        .as_mut()
                        .expect("access sites name allocated arrays");
                    local.data_mut()[t.eval(s.off, ints) as usize] = r!(src);
                    proc.work(flops);
                }
                Ins::LoadBased { d, site } => r!(d) = self.read(t, site, ints),
                Ins::StoreBased { site, src, flops } => {
                    self.write(t, site, ints, r!(src));
                    proc.work(flops);
                }
                Ins::MulSub { stmt } => {
                    let f = &t.fused[stmt as usize];
                    let x = self.read(t, f.a, ints);
                    let y = self.read(t, f.b, ints);
                    let z = self.read(t, f.c, ints);
                    // two roundings, as the unfused statement: never a
                    // `mul_add` (DESIGN §7.2, invariant 1)
                    self.write(t, f.d, ints, x - y * z);
                    proc.work(f.flops);
                }
                Ins::MulSubReg { stmt } => {
                    let f = &t.fused[stmt as usize];
                    let x = self.read(t, f.a, ints);
                    let s = r!(f.b);
                    let z = self.read(t, f.c, ints);
                    // `s·z` in the order of the unfused `Mul(y, s, y)`
                    self.write(t, f.d, ints, x - s * z);
                    proc.work(f.flops);
                }
                Ins::StoreF { slot, src, flops } => {
                    r!(slot) = r!(src);
                    proc.work(flops);
                }
                Ins::StoreI { slot, src, flops } => {
                    ints[slot as usize] = r!(src) as i64;
                    proc.work(flops);
                }
                Ins::Test { first, end, to } => {
                    let holds = t.tests[first as usize..end as usize].iter().all(|c| {
                        let v = t.eval(c.aff, ints);
                        c.lo <= v && v <= c.hi
                    });
                    if !holds {
                        pc = to as usize;
                    }
                }
                Ins::Jump { to } => pc = to as usize,
                Ins::JumpIfZero { a, to } => {
                    if r!(a) == 0.0 {
                        pc = to as usize;
                    }
                }
                Ins::LoopEnter { l, to } => {
                    let lp = &t.loops[l as usize];
                    let (mut lo, mut hi) = (t.eval(lp.lo, ints), t.eval(lp.hi, ints));
                    let ctr = lp.ctr as usize;
                    if let Some(hull) = lp.hull {
                        if !in_range(lo, hi, lp.step) {
                            pc = to as usize;
                            continue;
                        }
                        // the variable ends where the whole range does,
                        // whichever of its iterations this rank visits
                        let last = lo + more_trips(lo, hi, lp.step) * lp.step;
                        ints[ctr + 2] = last;
                        ints[lp.var as usize] = last;
                        // the window: the hull, and at a strip level the chunk
                        let window = match lp.chunk.map(|c| c as usize) {
                            Some(c) => (hull.0.max(ints[c]), hull.1.min(ints[c + 1])),
                            None => hull,
                        };
                        (lo, hi) = lp.shrink(lo, hi, window);
                    }
                    ints[ctr] = lo;
                    ints[ctr + 1] = hi;
                    if in_range(lo, hi, lp.step) {
                        ints[lp.var as usize] = lo;
                        for b in &t.bases[lp.bases.0..lp.bases.1] {
                            ints[b.slot as usize] = t.eval_wrapping(b.form, ints);
                        }
                        let trips = more_trips(lo, hi, lp.step) as u64 + 1;
                        self.counts.loop_trips += trips * (1 + lp.unrolled);
                    } else {
                        pc = to as usize;
                    }
                }
                Ins::LoopNext { l, body } => {
                    let lp = &t.loops[l as usize];
                    let ctr = lp.ctr as usize;
                    let v = ints[ctr] + lp.step;
                    ints[ctr] = v;
                    if in_range(v, ints[ctr + 1], lp.step) {
                        ints[lp.var as usize] = v;
                        for b in &t.bases[lp.bases.0..lp.moving] {
                            let base = &mut ints[b.slot as usize];
                            *base = base.wrapping_add(b.inc);
                        }
                        pc = body as usize;
                    } else if lp.hull.is_some() {
                        ints[lp.var as usize] = ints[ctr + 2];
                    }
                }
                Ins::Call { call } => {
                    let site = &t.calls[call as usize];
                    let callee = &tapes[site.tape];
                    let mut frame = Frame::new(callee);
                    for &(slot, src) in &site.ints {
                        frame.ints[slot as usize] = r!(src) as i64;
                    }
                    for &(slot, src) in &site.floats {
                        frame.regs[slot as usize] = r!(src);
                    }
                    proc.phase(&callee.unit.name);
                    let whole = (0, callee.code.len());
                    self.run(proc, tapes, callee, &mut frame.ints, &mut frame.regs, whole);
                }
                Ins::Comm { comm } => match &t.comms[comm as usize] {
                    Comm::Exchange { msgs, tag, plan } => {
                        proc.set_provenance(Some(*plan));
                        self.exchange(proc, &t.binding, msgs, *tag);
                        proc.set_provenance(None);
                    }
                    Comm::Overlap(o) => {
                        // the whole fused op — posts, interior compute,
                        // waits, boundary — is attributed to the
                        // overlapped nest
                        proc.set_provenance(Some(o.plan));
                        self.overlap_nest(proc, tapes, t, ints, regs, o);
                        proc.set_provenance(None);
                        pc = o.boundary.1;
                    }
                    Comm::Pipeline(p) => {
                        proc.set_provenance(Some(p.plan));
                        self.pipeline(proc, tapes, t, ints, regs, p);
                        proc.set_provenance(None);
                        pc = p.nest.1;
                    }
                },
                Ins::Fail { msg } => exec_fail(t.fails[msg as usize].clone()),
            }
        }
    }

    // The three message paths (`exchange`, `overlap_nest`, `pipeline`) are
    // kept out of line: inlined into `run` they change the code of its
    // instruction loop, 4% of `exec_s` on a single-rank BT run that never
    // sends a message.
    #[inline(never)]
    fn exchange(&mut self, proc: &mut Proc, binding: &[usize], msgs: &[Transfer<usize>], tag: u64) {
        // sends first (non-blocking), then receives
        self.send_all(proc, binding, msgs, tag);
        let rank = self.rank;
        for m in msgs.iter().filter(|m| m.to == rank) {
            let buf = proc.recv(m.from, tag);
            self.unpack(binding, m, tag, &buf, "exchange", format_args!(""));
        }
    }

    /// Send every transfer of `msgs` this rank is the source of.
    fn send_all(&self, proc: &mut Proc, binding: &[usize], msgs: &[Transfer<usize>], tag: u64) {
        for m in msgs.iter().filter(|m| m.from == self.rank) {
            self.send(proc, binding, m, tag);
        }
    }

    /// Send one transfer: every segment packed back-to-back, in order,
    /// into one physical message. `x` names arrays by local slot.
    fn send(&self, proc: &mut Proc, binding: &[usize], x: &Transfer<usize>, tag: u64) {
        let mut buf = Vec::with_capacity(x.elems());
        for s in &x.segs {
            let g = self.global_of(binding, s.arr);
            if let Some(local) = &self.storage[g] {
                self.check_section(local, g, s, "sends");
                local.pack_into(&s.lo, &s.hi, &mut buf);
            }
        }
        proc.send_parts(x.to, tag, buf, (x.segs.len() as u32).max(1));
    }

    /// Unpack the payload of one received transfer, the mirror of
    /// [`Self::send`]: each segment takes the next `elems()` of `buf`.
    /// A payload that runs short of a segment, or is not used up by all
    /// of them, is an [`ExecError`] naming `op` and its `context`.
    fn unpack(
        &mut self,
        binding: &[usize],
        x: &Transfer<usize>,
        tag: u64,
        buf: &[f64],
        op: &str,
        context: std::fmt::Arguments<'_>,
    ) {
        let mismatch = |st: &Self, detail: String| -> ! {
            exec_fail(format!(
                "{op} recv mismatch on rank {} (coords {:?}) from {}: {detail} (tag {tag}{context})",
                st.rank, st.coords, x.from
            ))
        };
        let mut off = 0usize;
        for s in &x.segs {
            let g = self.global_of(binding, s.arr);
            let need = s.elems();
            if off + need > buf.len() {
                let detail = format!(
                    "array {} region {:?}..{:?} needs {need} at offset {off} but the packed \
                     payload holds {}",
                    self.prog.arrays[g].name,
                    s.lo,
                    s.hi,
                    buf.len()
                );
                mismatch(self, detail);
            }
            if let Some(local) = &self.storage[g] {
                self.check_section(local, g, s, "receives into");
            }
            if let Some(local) = self.storage[g].as_mut() {
                local.unpack(&s.lo, &s.hi, &buf[off..off + need]);
            }
            off += need;
        }
        if off != buf.len() {
            let detail = format!("unpacked {off} of {} packed elements", buf.len());
            mismatch(self, detail);
        }
    }

    /// Fail with an [`ExecError`] unless the section of segment `s` of
    /// global array `g` is empty or inside the window `local` allocates:
    /// packing or unpacking a section outside it would index past the
    /// data.
    fn check_section(&self, local: &LocalArray, g: usize, s: &Seg<usize>, verb: &str) {
        let empty = s.lo.iter().zip(&s.hi).any(|(lo, hi)| lo > hi);
        if empty || (local.in_window(&s.lo) && local.in_window(&s.hi)) {
            return;
        }
        exec_fail(format!(
            "rank {} (coords {:?}) {verb} array {} region {:?}..{:?} outside its window \
             {:?}..{:?}",
            self.rank,
            self.coords,
            self.prog.arrays[g].name,
            s.lo,
            s.hi,
            local.alloc_lo(),
            local.alloc_hi()
        ))
    }

    /// Execute an overlapped halo exchange: send, post receives, run the
    /// interior pass while the messages are in flight, wait and unpack,
    /// then run the boundary pass. The two passes cover exactly the
    /// iterations the blocking nest runs (each iteration lands in one
    /// pass by the nest's interior term), so numerics and charged flops
    /// are identical — only the virtual-time placement of the
    /// communication changes.
    #[inline(never)]
    fn overlap_nest(
        &mut self,
        proc: &mut Proc,
        tapes: &[Tape<'p>],
        t: &Tape<'p>,
        ints: &mut [i64],
        regs: &mut [f64],
        o: &Overlap<'p>,
    ) {
        let (binding, tag) = (&t.binding, o.tag);
        self.send_all(proc, binding, o.msgs, tag);
        // post in plan order: FIFO per (source, tag) matches each wait
        // below to the same message the blocking exchange would recv.
        // One irecv per peer message, however many segments it carries.
        let mine = o.msgs.iter().filter(|m| m.to == self.rank);
        let posted: Vec<_> = mine.map(|m| (m, proc.irecv(m.from, tag))).collect();
        self.run(proc, tapes, t, ints, regs, o.interior);
        for (m, req) in posted {
            let buf = proc.wait(req);
            self.unpack(binding, m, tag, &buf, "overlap", format_args!(""));
        }
        self.run(proc, tapes, t, ints, regs, o.boundary);
    }

    /// A pipelined sweep, per strip chunk (without a strip, in one pass
    /// of whole hops): receive the chunk's part of the hops into this
    /// rank, run the nest over the chunk, send the chunk's part of the
    /// hops out of it.
    #[inline(never)]
    fn pipeline(
        &mut self,
        proc: &mut Proc,
        tapes: &[Tape<'p>],
        t: &Tape<'p>,
        ints: &mut [i64],
        regs: &mut [f64],
        p: &Pipe<'p>,
    ) {
        let chunks: Vec<Option<(i64, i64)>> = match p.strip {
            Some((strip, _)) => {
                let level = &p.levels[strip.level];
                let range = (level.lo.eval(ints), level.hi.eval(ints));
                let chunks = strip.chunks(range, level.step, self.rank);
                chunks.into_iter().map(Some).collect()
            }
            None => vec![None],
        };
        let tag = p.tag;
        for chunk in chunks {
            let part = |x: &Transfer<usize>| match (p.strip, chunk) {
                (Some((strip, _)), Some(chunk)) => strip.cut(x, chunk),
                _ => x.clone(),
            };
            let (lo, hi) = chunk.unwrap_or((0, 0));
            for x in &p.recv {
                let buf = proc.recv(x.from, tag);
                let context = format_args!(", chunk {lo}..{hi}");
                self.unpack(&t.binding, &part(x), tag, &buf, "pipeline", context);
            }
            // the strip level's window is the chunk
            if let Some((_, slots)) = p.strip {
                ints[slots as usize] = lo;
                ints[slots as usize + 1] = hi;
            }
            self.run(proc, tapes, t, ints, regs, p.nest);
            for x in &p.send {
                self.send(proc, &t.binding, &part(x), tag);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{
        CExpr, CIdx, CompiledUnit, GlobalArray, Guard, GuardAtom, NodeOp, PipeLevel, Strip,
        INTRINSIC_NAMES,
    };
    use crate::distrib::{ArrayDist, DimMap, ProcGrid};
    use crate::driver::{compile, CompileOptions};
    use crate::exec::serial::{eval_intrinsic, run_serial};
    use crate::exec::tape::{lower_program_plain, SlotUse};
    use dhpf_fortran::ast::BinOp;
    use proptest::prelude::*;

    /// The tree-walking evaluator the tape replaced, kept as the bitwise
    /// reference: same operations in the same order, straight off the
    /// `CExpr`/`Guard` trees.
    struct Tree<'a> {
        st: &'a ProcState<'a>,
        binding: &'a [usize],
        ints: &'a [i64],
        floats: &'a [f64],
    }

    impl Tree<'_> {
        fn guard_passes(&self, guard: &Option<Guard>) -> bool {
            let Some(g) = guard else { return true };
            g.terms.iter().any(|atoms| {
                atoms.iter().all(|a| match a {
                    GuardAtom::In { arr, dim, sub } => {
                        let g = self.binding[*arr];
                        if g == UNBOUND {
                            return true;
                        }
                        let (lo, hi) = self.st.owned[g][*dim];
                        let v = sub.eval(self.ints);
                        v >= lo && v <= hi
                    }
                    GuardAtom::Overlap { arr, dim, lo, hi } => {
                        let g = self.binding[*arr];
                        if g == UNBOUND {
                            return true;
                        }
                        let (olo, ohi) = self.st.owned[g][*dim];
                        hi.eval(self.ints) >= olo && lo.eval(self.ints) <= ohi
                    }
                })
            })
        }

        fn eval(&self, e: &CExpr) -> f64 {
            match e {
                CExpr::Const(v) => *v,
                CExpr::Int(ci) => ci.eval(self.ints) as f64,
                CExpr::LoadF(slot) => self.floats[*slot],
                CExpr::Load { arr, subs } => {
                    let local = self.st.storage[self.binding[*arr]].as_ref().unwrap();
                    let idx: Vec<i64> = subs.iter().map(|s| s.eval(self.ints)).collect();
                    local.get(&idx)
                }
                CExpr::Bin(op, a, b) => {
                    let x = self.eval(a);
                    match op {
                        BinOp::And if x == 0.0 => return 0.0,
                        BinOp::Or if x != 0.0 => return 1.0,
                        _ => {}
                    }
                    let y = self.eval(b);
                    match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        BinOp::Pow => x.powf(y),
                        BinOp::Lt => f64::from(x < y),
                        BinOp::Le => f64::from(x <= y),
                        BinOp::Gt => f64::from(x > y),
                        BinOp::Ge => f64::from(x >= y),
                        BinOp::Eq => f64::from(x == y),
                        BinOp::Ne => f64::from(x != y),
                        BinOp::And | BinOp::Or => f64::from(y != 0.0),
                    }
                }
                CExpr::Neg(a) => -self.eval(a),
                CExpr::Intr(idx, args) => {
                    let vals: Vec<f64> = args.iter().map(|a| self.eval(a)).collect();
                    eval_intrinsic(INTRINSIC_NAMES[*idx], &vals).unwrap()
                }
            }
        }
    }

    // Frame of the property tests: eight int slots, three float slots,
    // and four array slots — `a`, a serial 4×4 array; `b`,
    // block-distributed over two ranks, of which rank 1 (the one under
    // test) owns 5..=8 plus one ghost cell either side; `d`, an array
    // dummy nothing is bound to; and `e`, distributed like `b` but so
    // short that rank 1 owns none of it.
    const A: usize = 0;
    const B: usize = 1;
    const D: usize = 2;
    const E: usize = 3;
    const N_INTS: usize = 8;

    fn program(ops: Vec<NodeOp>) -> NodeProgram {
        let blocked = |name: &str, hi: i64| GlobalArray {
            name: name.into(),
            bounds: vec![(1, hi)],
            dist: Some(ArrayDist {
                array: name.into(),
                bounds: vec![(1, hi)],
                dims: vec![DimMap::Block {
                    pdim: 0,
                    block: 4,
                    align_offset: 0,
                    nproc: 2,
                }],
            }),
            ghost: vec![1],
        };
        let arrays = vec![
            GlobalArray {
                name: "a".into(),
                bounds: vec![(0, 3), (0, 3)],
                dist: None,
                ghost: vec![0, 0],
            },
            blocked("b", 8),
            blocked("e", 4),
        ];
        let unit = CompiledUnit {
            name: "main".into(),
            n_ints: N_INTS,
            n_floats: 3,
            n_arrays: 4,
            array_global: vec![Some(0), Some(1), None, Some(2)],
            array_names: vec!["a".into(), "b".into(), "d".into(), "e".into()],
            ops,
            ..Default::default()
        };
        NodeProgram {
            grid: ProcGrid {
                name: "p".into(),
                extents: vec![2],
            },
            arrays,
            unit_index: [("main".to_string(), 0)].into(),
            units: vec![unit],
            main: 0,
            provenance: vec![],
        }
    }

    /// A rank's state with every array cell holding a distinct value,
    /// a NaN, an infinity and a negative zero among them. The finite
    /// values are inexact (tenths), so that a product of two rounds and
    /// `x − y·z` with one rounding differs from it with two.
    fn filled_state(prog: &NodeProgram, rank: usize) -> ProcState<'_> {
        let mut st = ProcState::new(prog, rank);
        for local in st.storage.iter_mut().flatten() {
            for (i, v) in local.data_mut().iter_mut().enumerate() {
                *v = match i % 7 {
                    3 => f64::NAN,
                    5 => -0.0,
                    6 => f64::NEG_INFINITY,
                    _ => 0.3 * i as f64 - 1.5,
                };
            }
        }
        st
    }

    fn special_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(1.0),
            Just(-2.5),
            Just(3.7),
            Just(1.0e300),
            Just(-4.9e-324),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (-6i64..=6).prop_map(|v| v as f64),
            (0u64..u64::MAX).prop_map(f64::from_bits),
        ]
    }

    /// Affine form over the int slots with small coefficients.
    fn arb_cidx() -> impl Strategy<Value = CIdx> {
        (
            prop::collection::vec((0usize..3, -2i64..=2), 0..=3),
            -3i64..=10,
        )
            .prop_map(|(terms, cst)| CIdx { terms, cst })
    }

    /// A subscript that stays in `lo..=lo + 3` for every frame.
    fn arb_sub(lo: i64) -> impl Strategy<Value = CIdx> {
        prop_oneof![
            (0i64..=3).prop_map(move |c| CIdx::cst(lo + c)),
            (0usize..3).prop_map(move |slot| CIdx {
                terms: vec![(slot, 1)],
                cst: lo
            }),
            (0usize..3).prop_map(move |slot| CIdx {
                terms: vec![(slot, -1)],
                cst: lo + 3
            }),
        ]
    }

    fn intr(name: &str) -> usize {
        INTRINSIC_NAMES.iter().position(|n| *n == name).unwrap()
    }

    fn arb_expr() -> impl Strategy<Value = CExpr> {
        let leaf = prop_oneof![
            special_f64().prop_map(CExpr::Const),
            (0usize..3).prop_map(CExpr::LoadF),
            arb_cidx().prop_map(CExpr::Int),
            (arb_sub(0), arb_sub(0)).prop_map(|(i, j)| CExpr::Load {
                arr: A,
                subs: vec![i, j]
            }),
            arb_sub(5).prop_map(|i| CExpr::Load {
                arr: B,
                subs: vec![i]
            }),
        ];
        leaf.prop_recursive(4, 32, 4, |inner| {
            let bin = prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::Div),
                Just(BinOp::Pow),
                Just(BinOp::Lt),
                Just(BinOp::Le),
                Just(BinOp::Gt),
                Just(BinOp::Ge),
                Just(BinOp::Eq),
                Just(BinOp::Ne),
                Just(BinOp::And),
                Just(BinOp::Or),
            ];
            let unary = prop_oneof![
                Just("abs"),
                Just("sqrt"),
                Just("exp"),
                Just("dble"),
                Just("int"),
                Just("sin"),
                Just("cos"),
            ];
            prop_oneof![
                (bin, inner.clone(), inner.clone()).prop_map(|(op, a, b)| CExpr::Bin(
                    op,
                    Box::new(a),
                    Box::new(b)
                )),
                inner.clone().prop_map(|a| CExpr::Neg(Box::new(a))),
                (unary, inner.clone()).prop_map(|(f, a)| CExpr::Intr(intr(f), vec![a])),
                (
                    prop_oneof![Just("mod"), Just("sign")],
                    inner.clone(),
                    inner.clone()
                )
                    .prop_map(|(f, a, b)| CExpr::Intr(intr(f), vec![a, b])),
                (
                    prop_oneof![Just("min"), Just("max")],
                    prop::collection::vec(inner, 1..=4)
                )
                    .prop_map(|(f, args)| CExpr::Intr(intr(f), args)),
            ]
        })
    }

    fn arb_guard() -> impl Strategy<Value = Option<Guard>> {
        let atom = prop_oneof![
            (prop_oneof![Just(B), Just(D)], arb_cidx()).prop_map(|(arr, sub)| GuardAtom::In {
                arr,
                dim: 0,
                sub
            }),
            (0usize..2, arb_cidx()).prop_map(|(dim, sub)| GuardAtom::In { arr: A, dim, sub }),
            (arb_cidx(), arb_cidx()).prop_map(|(lo, hi)| GuardAtom::Overlap {
                arr: B,
                dim: 0,
                lo,
                hi
            }),
        ];
        let terms = prop::collection::vec(prop::collection::vec(atom, 0..=3), 0..=3);
        prop_oneof![Just(None), terms.prop_map(|terms| Some(Guard { terms })),]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn tape_matches_tree_reference(
            guard_f in arb_guard(),
            guard_a in arb_guard(),
            value in arb_expr(),
            sub in (arb_sub(0), arb_sub(0)),
            ints in prop::collection::vec(0i64..=3, 3),
            floats in prop::collection::vec(special_f64(), 3),
        ) {
            // guarded float-scalar and array assignments, then an integer
            // assignment (last, because it may store any i64 into a slot
            // that subscripts read)
            let prog = program(vec![
                NodeOp::AssignF { guard: guard_f.clone(), slot: 1, value: value.clone(), flops: 3 },
                NodeOp::Assign {
                    guard: guard_a.clone(),
                    arr: A,
                    subs: vec![sub.0.clone(), sub.1.clone()],
                    value: value.clone(),
                    flops: 2,
                },
                NodeOp::AssignI { guard: None, slot: 0, value: value.clone(), flops: 1 },
            ]);

            // the reference, statement by statement
            let mut want = filled_state(&prog, 1);
            let binding = [0, 1, UNBOUND, 2];
            let (mut want_ints, mut want_floats) = (ints.clone(), floats.clone());
            let tree = |st: &ProcState, ints: &[i64], floats: &[f64], guard: &Option<Guard>| {
                let t = Tree { st, binding: &binding, ints, floats };
                t.guard_passes(guard).then(|| t.eval(&value))
            };
            // virtual clock: one charge per passing statement, in order
            let per_flop = MachineConfig::sp2(1).seconds_per_flop;
            let mut want_clock = 0.0;
            if let Some(v) = tree(&want, &want_ints, &want_floats, &guard_f) {
                want_floats[1] = v;
                want_clock += 3.0 * per_flop;
            }
            if let Some(v) = tree(&want, &want_ints, &want_floats, &guard_a) {
                let at = [sub.0.eval(&want_ints), sub.1.eval(&want_ints)];
                want.storage[0].as_mut().unwrap().set(&at, v);
                want_clock += 2.0 * per_flop;
            }
            want_ints[0] = tree(&want, &want_ints, &want_floats, &None).unwrap() as i64;
            want_clock += 1.0 * per_flop;

            // the tape, on a one-processor machine standing in for rank 1
            let (storage, frame, clock, _) = run_lowered(&prog, true, &ints, &floats);

            prop_assert_eq!(&frame.ints[..3], &want_ints[..]);
            for (g, w) in frame.regs.iter().zip(&want_floats) {
                prop_assert!(g.to_bits() == w.to_bits(), "float slot: tape {g:e}, tree {w:e}");
            }
            for (g, w) in storage.iter().flatten().zip(want.storage.iter().flatten()) {
                for (g, w) in g.data().iter().zip(w.data()) {
                    prop_assert!(g.to_bits() == w.to_bits(), "array cell: tape {g:e}, tree {w:e}");
                }
            }
            prop_assert_eq!(clock.to_bits(), want_clock.to_bits());
        }
    }

    // ---- nests, for the ranges the lowering learns -----------------------
    //
    // Int slots 0..=2 are the loop variables of nest levels 0..=2, slots
    // 3 and 4 free scalars, and slots 5..=7 receive copies of the loop
    // variables after the nests.

    // The strategies below are rebuilt for every case: each builds its
    // parts once and repeats a part by cloning it, to weight it.

    /// An int slot to read at nest level `level`: mostly a variable of an
    /// enclosing loop or a free scalar, now and then any slot — an inner
    /// loop's variable, read outside its loop, included.
    fn arb_slot(level: usize) -> BoxedStrategy<usize> {
        let near = prop_oneof![0..=level, 0..=level, 0..=level, 3usize..=4].boxed();
        let near = || near.clone();
        prop_oneof![near(), near(), near(), near(), near(), near(), 0usize..=4].boxed()
    }

    fn arb_form(level: usize) -> BoxedStrategy<CIdx> {
        let coef = prop_oneof![Just(1i64), Just(1), Just(-1), Just(-1), Just(2)];
        let terms = prop::collection::vec((arb_slot(level), coef), 0..=2);
        (terms, -2i64..=9)
            .prop_map(|(terms, cst)| CIdx { terms, cst })
            .boxed()
    }

    /// The terms of a guard: mostly one, of up to two atoms (a term of
    /// no atom always passes; a guard of no term never does).
    fn arb_terms(form: &BoxedStrategy<CIdx>) -> BoxedStrategy<Vec<Vec<GuardAtom>>> {
        let form = || form.clone();
        let atom = prop_oneof![
            (prop_oneof![Just(B), Just(B), Just(D), Just(E)], form())
                .prop_map(|(arr, sub)| GuardAtom::In { arr, dim: 0, sub }),
            (0usize..2, form()).prop_map(|(dim, sub)| GuardAtom::In { arr: A, dim, sub }),
            (prop_oneof![Just(B), Just(B), Just(E)], form(), form()).prop_map(|(arr, lo, hi)| {
                GuardAtom::Overlap {
                    arr,
                    dim: 0,
                    lo,
                    hi,
                }
            }),
        ];
        let some = prop::collection::vec(atom, 1..=2).boxed();
        let some = || some.clone();
        let atoms = prop_oneof![some(), some(), some(), some(), some(), Just(vec![])].boxed();
        let one = prop::collection::vec(atoms.clone(), 1..=1).boxed();
        prop_oneof![one.clone(), one, prop::collection::vec(atoms, 0..=2)].boxed()
    }

    /// A value over loads subscripted by constants inside the windows
    /// and, when `vary`, by forms, which stay inside the windows under
    /// the atoms [`inside`] adds to the statement's guard. Among its
    /// shapes are `x − y·z` over three loads and `x − s·z` over two, `s`
    /// a float slot or a constant: the statements the lowering fuses.
    fn arb_value(form: &BoxedStrategy<CIdx>, vary: bool) -> BoxedStrategy<CExpr> {
        let sub = |lo: i64, hi: i64| {
            let cst = (lo..=hi).prop_map(CIdx::cst).boxed();
            if vary {
                prop_oneof![cst, form.clone()].boxed()
            } else {
                cst
            }
        };
        let load = prop_oneof![
            (sub(0, 3), sub(0, 3)).prop_map(|(i, j)| CExpr::Load {
                arr: A,
                subs: vec![i, j]
            }),
            sub(4, 9).prop_map(|i| CExpr::Load {
                arr: B,
                subs: vec![i]
            }),
        ]
        .boxed();
        let leaf = prop_oneof![
            special_f64().prop_map(CExpr::Const),
            (0usize..3).prop_map(CExpr::LoadF),
            form.clone().prop_map(CExpr::Int),
            load.clone(),
            load.clone(),
        ]
        .boxed();
        let scalar = prop_oneof![
            special_f64().prop_map(CExpr::Const),
            (0usize..3).prop_map(CExpr::LoadF),
        ];
        let op = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Lt)
        ];
        let bin = |op, a, b| CExpr::Bin(op, Box::new(a), Box::new(b));
        prop_oneof![
            leaf.clone(),
            (op, leaf.clone(), leaf).prop_map(move |(op, a, b)| bin(op, a, b)),
            (load.clone(), load.clone(), load.clone()).prop_map(move |(x, y, z)| bin(
                BinOp::Sub,
                x,
                bin(BinOp::Mul, y, z)
            )),
            (load.clone(), scalar, load).prop_map(move |(x, s, z)| bin(
                BinOp::Sub,
                x,
                bin(BinOp::Mul, s, z)
            )),
        ]
        .boxed()
    }

    /// The atoms that keep the loads of `value` inside what rank 1 owns,
    /// for each subscript but a constant inside the window.
    fn inside(value: &CExpr, out: &mut Vec<GuardAtom>) {
        match value {
            CExpr::Load { arr, subs } => {
                let window = if *arr == A { 0..=3 } else { 4..=9 };
                let fixed = |s: &CIdx| s.terms.is_empty() && window.contains(&s.cst);
                let formed = subs.iter().enumerate().filter(|(_, s)| !fixed(s));
                out.extend(formed.map(|(dim, sub)| GuardAtom::In {
                    arr: *arr,
                    dim,
                    sub: sub.clone(),
                }));
            }
            CExpr::Bin(_, a, b) => {
                inside(a, out);
                inside(b, out);
            }
            CExpr::Neg(a) => inside(a, out),
            CExpr::Intr(_, args) => args.iter().for_each(|a| inside(a, out)),
            CExpr::Const(_) | CExpr::LoadF(_) | CExpr::Int(_) => {}
        }
    }

    /// `guard` with `atoms` added to each of its terms; no guard becomes
    /// the one term `atoms`.
    fn guarded(guard: Option<Guard>, atoms: &[GuardAtom]) -> Option<Guard> {
        match guard {
            None if atoms.is_empty() => None,
            None => Some(Guard {
                terms: vec![atoms.to_vec()],
            }),
            Some(mut g) => {
                g.terms.iter_mut().for_each(|t| t.extend_from_slice(atoms));
                Some(g)
            }
        }
    }

    /// A statement: an array assignment every guard term of which keeps
    /// inside the array, or a scalar assignment under any guard or none;
    /// either way the guard keeps the loads inside the windows. Integer
    /// assignments take a loop variable or a constant, so that no value
    /// grows with the trip count.
    fn arb_stmt(level: usize) -> BoxedStrategy<NodeOp> {
        let form = arb_form(level);
        let (terms, value) = (arb_terms(&form), arb_value(&form, true));
        let form = || form.clone();
        let some = terms
            .clone()
            .prop_map(|terms| Some(Guard { terms }))
            .boxed();
        let some = || some.clone();
        let any_guard = prop_oneof![some(), some(), some(), some(), some(), Just(None)].boxed();
        let int_value = prop_oneof![
            (0i64..=9).prop_map(CIdx::cst),
            (0..=level, -1i64..=3).prop_map(|(slot, cst)| CIdx {
                terms: vec![(slot, 1)],
                cst
            }),
        ];
        let int_slot = prop_oneof![3usize..=4, 0usize..=2];
        prop_oneof![
            (form(), terms.clone(), value.clone(), 0u64..4).prop_map(
                move |(sub, terms, value, flops)| {
                    let mut atoms = vec![GuardAtom::In {
                        arr: B,
                        dim: 0,
                        sub: sub.clone(),
                    }];
                    inside(&value, &mut atoms);
                    NodeOp::Assign {
                        guard: guarded(Some(Guard { terms }), &atoms),
                        arr: B,
                        subs: vec![sub],
                        value,
                        flops,
                    }
                }
            ),
            (form(), form(), terms, value.clone(), 0u64..4).prop_map(
                move |(i, j, terms, value, flops)| {
                    let mut atoms = [(0, &i), (1, &j)]
                        .map(|(dim, sub)| GuardAtom::In {
                            arr: A,
                            dim,
                            sub: sub.clone(),
                        })
                        .to_vec();
                    inside(&value, &mut atoms);
                    NodeOp::Assign {
                        guard: guarded(Some(Guard { terms }), &atoms),
                        arr: A,
                        subs: vec![i, j],
                        value,
                        flops,
                    }
                }
            ),
            (any_guard.clone(), 0usize..3, value, 0u64..4).prop_map(
                |(guard, slot, value, flops)| {
                    let mut atoms = Vec::new();
                    inside(&value, &mut atoms);
                    NodeOp::AssignF {
                        guard: guarded(guard, &atoms),
                        slot,
                        value,
                        flops,
                    }
                }
            ),
            (any_guard, int_slot, int_value, 0u64..4).prop_map(|(guard, slot, value, flops)| {
                NodeOp::AssignI {
                    guard,
                    slot,
                    value: CExpr::Int(value),
                    flops,
                }
            }),
        ]
        .boxed()
    }

    /// Statements that compute one value twice, into cells of `b` inside
    /// rank 1's window, the lowering's value numbering free to reuse it
    /// unless what lies between changes it: a store to the array of a
    /// load (mostly to its very cell), an assignment to a float scalar
    /// the value reads, one to an int scalar its form reads, or nothing
    /// but the product in the other order, over NaNs of two payloads.
    fn arb_hazard(level: usize) -> BoxedStrategy<Vec<NodeOp>> {
        let cell = || (0i64..=3, 0i64..=3).prop_map(|(i, j)| vec![CIdx::cst(i), CIdx::cst(j)]);
        let nan = prop_oneof![
            Just(f64::from_bits(0x7ff8_0000_0000_0001)),
            Just(f64::from_bits(0xfff8_0000_0000_0002)),
            Just(f64::NAN),
        ];
        let factor = prop_oneof![
            nan.prop_map(CExpr::Const),
            (0usize..3).prop_map(CExpr::LoadF),
            cell().prop_map(|subs| *load(A, subs)),
            arb_form(level).prop_map(CExpr::Int),
        ]
        .boxed();
        let factor = || factor.clone();
        let b = || (4i64..=9).prop_map(|c| vec![CIdx::cst(c)]);
        let cells = || (b(), b());
        let twice = |value: CExpr, between: NodeOp, (c1, c2)| {
            vec![set(B, c1, value.clone()), between, set(B, c2, value)]
        };
        let store = (cells(), cell(), cell(), 0usize..2, factor(), factor()).prop_map(
            move |(cells, q, other, same, e, v)| {
                let value = bin(BinOp::Mul, *load(A, q.clone()), e);
                let to = if same == 0 { q } else { other };
                twice(value, set(A, to, v), cells)
            },
        );
        let assign_f =
            (cells(), 0usize..3, factor(), factor()).prop_map(move |(cells, slot, e, value)| {
                let between = NodeOp::AssignF {
                    guard: None,
                    slot,
                    value,
                    flops: 1,
                };
                twice(bin(BinOp::Add, CExpr::LoadF(slot), e), between, cells)
            });
        let assign_i = (cells(), 3usize..=4, -2i64..=2, factor(), 0i64..=9).prop_map(
            move |(cells, slot, cst, e, v)| {
                let between = NodeOp::AssignI {
                    guard: None,
                    slot,
                    value: CExpr::Int(CIdx::cst(v)),
                    flops: 1,
                };
                twice(
                    bin(BinOp::Mul, CExpr::Int(var(slot, cst)), e),
                    between,
                    cells,
                )
            },
        );
        let swapped = (cells(), factor(), factor()).prop_map(|((c1, c2), x, y)| {
            let (xy, yx) = (bin(BinOp::Mul, x.clone(), y.clone()), bin(BinOp::Mul, y, x));
            vec![set(B, c1, xy), set(B, c2, yx)]
        });
        prop_oneof![store, assign_f, assign_i, swapped].boxed()
    }

    /// A bound of a loop at nest level `level`: a constant in `cst` or,
    /// below level 0, now and then an outer loop's variable plus a
    /// constant.
    fn arb_bound(level: usize, cst: std::ops::RangeInclusive<i64>) -> BoxedStrategy<CIdx> {
        let cst = cst.prop_map(CIdx::cst).boxed();
        let outer = (0..=level.saturating_sub(1), -2i64..=2).prop_map(|(slot, cst)| CIdx {
            terms: vec![(slot, 1)],
            cst,
        });
        if level == 0 {
            cst
        } else {
            prop_oneof![cst.clone(), cst, outer].boxed()
        }
    }

    /// The bounds `(lo, hi)` of a range by `step` that runs from the low
    /// bound to the high one in the direction of the step, except when it
    /// is to be `empty`.
    fn directed((lo, hi): (CIdx, CIdx), step: i64, empty: bool) -> (CIdx, CIdx) {
        if (step < 0) != empty {
            (hi, lo)
        } else {
            (lo, hi)
        }
    }

    /// A loop at nest level `level`: steps 1, -1, 2 and -3; bounds that
    /// are constants or an outer loop's variable plus a constant; now and
    /// then no trip at all, or, below level 0, a short constant range;
    /// inner loops down to level 2, some under `if`; and [`arb_hazard`]'s
    /// runs of statements, which an unrolled body lowers into one block
    /// with its other copies. An `if` tests values
    /// or compares integer forms, which the lowering decides where they
    /// are over the pinned variables of unrolled copies.
    fn arb_loop(level: usize) -> BoxedStrategy<NodeOp> {
        let step = prop_oneof![Just(1i64), Just(1), Just(-1), Just(2), Just(-3)];
        let stmt = arb_stmt(level);
        let item = if level == 2 {
            stmt
        } else {
            prop_oneof![stmt.clone(), stmt, arb_loop(level + 1)].boxed()
        };
        let item = || item.clone();
        let form = arb_form(level);
        let value = arb_value(&form, false);
        let int = prop_oneof![
            form.clone().prop_map(CExpr::Int),
            form.prop_map(CExpr::Int),
            (-1i64..=5).prop_map(|v| CExpr::Const(v as f64)),
        ]
        .boxed();
        let cmp = prop_oneof![Just(BinOp::Ne), Just(BinOp::Eq), Just(BinOp::Le)];
        let cond = |(op, a, b)| Some(CExpr::Bin(op, Box::new(a), Box::new(b)));
        let branch = (
            prop_oneof![
                Just(None),
                (Just(BinOp::Lt), value.clone(), value).prop_map(cond),
                (cmp, int.clone(), int).prop_map(cond),
            ],
            prop::collection::vec(item(), 0..=2),
        );
        let arms = prop::collection::vec(branch, 1..=2).prop_map(|arms| NodeOp::If { arms });
        let one = prop_oneof![item(), item(), item(), arms]
            .prop_map(|op| vec![op])
            .boxed();
        let body = prop::collection::vec(prop_oneof![one.clone(), one, arb_hazard(level)], 1..=3)
            .prop_map(|runs| runs.into_iter().flatten().collect::<Vec<_>>());
        // an inner loop now and then gets a short constant range, of one
        // to five trips at step 1: a loop the lowering unrolls
        let wide = (arb_bound(level, 0..=4), arb_bound(level, 4..=9)).boxed();
        let short = (0i64..=4, 0i64..=4).prop_map(|(lo, k)| (CIdx::cst(lo), CIdx::cst(lo + k)));
        let bounds = if level == 0 {
            wide
        } else {
            prop_oneof![wide.clone(), wide, short].boxed()
        };
        (bounds, step, 0usize..8, body)
            .prop_map(move |(bounds, step, empty, body)| {
                let (lo, hi) = directed(bounds, step, empty == 0);
                NodeOp::Loop {
                    var: level,
                    lo,
                    hi,
                    step,
                    body,
                }
            })
            .boxed()
    }

    /// A single-chain nest of one to three levels over the int slots
    /// `0..=2`, by `steps`, and its innermost body. An inner level gets a
    /// short constant range, of one to five trips, half the time: a level
    /// the lowering unrolls inside an interpreted one.
    fn arb_chain(steps: BoxedStrategy<i64>) -> BoxedStrategy<(Vec<PipeLevel>, Vec<NodeOp>)> {
        let level = |var: usize| {
            let wide = (arb_bound(var, 0..=4), arb_bound(var, 4..=9)).boxed();
            let short = (0i64..=4, 0i64..=4).prop_map(|(lo, k)| (CIdx::cst(lo), CIdx::cst(lo + k)));
            let bounds = if var == 0 {
                wide
            } else {
                prop_oneof![wide, short].boxed()
            };
            (bounds, steps.clone(), 0usize..8).prop_map(move |(bounds, step, empty)| {
                let (lo, hi) = directed(bounds, step, empty == 0);
                PipeLevel { var, lo, hi, step }
            })
        };
        let body = |level: usize| prop::collection::vec(arb_stmt(level), 1..=3);
        prop_oneof![
            (level(0), body(0)).prop_map(|(a, body)| (vec![a], body)),
            (level(0), level(1), body(1)).prop_map(|(a, b, body)| (vec![a, b], body)),
            (level(0), level(1), level(2), body(2))
                .prop_map(|(a, b, c, body)| (vec![a, b, c], body)),
        ]
        .boxed()
    }

    /// An overlapped nest with no message, its interior term one to three
    /// atoms on the variables of its levels, the innermost's most often.
    fn arb_overlap() -> BoxedStrategy<NodeOp> {
        let steps = prop_oneof![Just(1i64), Just(1), Just(-1), Just(2), Just(-3)].boxed();
        let arr = prop_oneof![Just(A), Just(B), Just(B), Just(D), Just(E)];
        let atom = (0usize..4, arr, 0usize..2, -2i64..=2);
        (arb_chain(steps), prop::collection::vec(atom, 1..=3))
            .prop_map(|((levels, body), atoms)| {
                let interior = (atoms.into_iter())
                    .map(|(level, arr, dim, shift)| GuardAtom::In {
                        arr,
                        dim: if arr == A { dim } else { 0 },
                        sub: var(levels[level.min(levels.len() - 1)].var, shift),
                    })
                    .collect();
                NodeOp::OverlapNest {
                    msgs: vec![],
                    tag: 0,
                    levels,
                    body,
                    interior,
                    plan: 0,
                }
            })
            .boxed()
    }

    /// A pipelined nest with no hop, strip-mined at one of its levels by
    /// steps 1, -1 and 2, in chunks of one to four trips, over owned
    /// windows (an empty one among them) or over the whole range.
    fn arb_pipeline() -> BoxedStrategy<NodeOp> {
        let steps = prop_oneof![Just(1i64), Just(-1), Just(2)].boxed();
        let window = prop_oneof![
            (0i64..=9, 0i64..=5).prop_map(|(lo, k)| (lo, lo + k)),
            Just((3, 1))
        ]
        .boxed();
        let owned = prop_oneof![
            Just(None),
            (window.clone(), window).prop_map(|(a, b)| Some(vec![a, b]))
        ];
        (arb_chain(steps), 0usize..3, 1i64..=4, owned)
            .prop_map(|((levels, body), level, granularity, owned)| {
                let strip = Strip {
                    level: level % levels.len(),
                    granularity,
                    owned,
                    dims: vec![],
                };
                NodeOp::Pipeline {
                    levels,
                    body,
                    strip: Some(strip),
                    hops: vec![],
                    tag: 0,
                    plan: 0,
                }
            })
            .boxed()
    }

    /// Lower `prog` for rank 1 — with ranges, bases and fused statements,
    /// or by the plain reference lowering — and run it from the given
    /// frame.
    fn run_lowered(
        prog: &NodeProgram,
        opt: bool,
        ints: &[i64],
        floats: &[f64],
    ) -> (Vec<Option<LocalArray>>, Frame, f64, u64) {
        run_lowered_on(prog, 1, opt, ints, floats)
    }

    /// [`run_lowered`] for any rank of the two.
    fn run_lowered_on(
        prog: &NodeProgram,
        rank: usize,
        opt: bool,
        ints: &[i64],
        floats: &[f64],
    ) -> (Vec<Option<LocalArray>>, Frame, f64, u64) {
        let got = Mutex::new(None);
        let run = Machine::run(MachineConfig::sp2(1), |proc| {
            let mut st = filled_state(prog, rank);
            let tapes = if opt {
                lower_program(&st).0
            } else {
                lower_program_plain(&st)
            };
            let mut frame = Frame::new(&tapes[0]);
            frame.ints[..ints.len()].copy_from_slice(ints);
            frame.regs[..floats.len()].copy_from_slice(floats);
            let whole = (0, tapes[0].code.len());
            st.run(
                proc,
                &tapes,
                &tapes[0],
                &mut frame.ints,
                &mut frame.regs,
                whole,
            );
            frame.ints.truncate(N_INTS);
            frame.regs.truncate(3);
            *got.lock().unwrap() = Some((st.storage, frame, st.counts.loop_trips));
        });
        let (storage, frame, trips) = got.into_inner().unwrap().unwrap();
        (storage, frame, run.virtual_time, trips)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// What the lowering learns changes nothing a program can see:
        /// every array cell, float slot and int slot and the virtual clock
        /// are those of the lowering that runs every iteration of every
        /// loop under every test of every guard — also in overlapped
        /// nests, whose interior pass the interior term narrows, and at
        /// the strip level of pipelined ones, narrowed to each chunk.
        #[test]
        fn learned_ranges_change_nothing(
            nests in {
                let nest = arb_loop(0);
                let items = prop_oneof![nest.clone(), nest, arb_stmt(0), arb_overlap(), arb_pipeline()];
                prop::collection::vec(items, 2..=3)
            },
            copied in prop::collection::vec((0usize..3, -2i64..=2), 3),
            ints in prop::collection::vec(0i64..=3, 5),
            floats in prop::collection::vec(special_f64(), 3),
        ) {
            // nests, and statements between them that read the outermost
            // variable; then copies of some of the loop variables, each
            // made where the variable, shifted, is in what rank 1 owns
            let copies = (0..3).zip(&copied).filter(|(_, (skip, _))| *skip == 0).map(|(k, (_, cst))| {
                let var = |cst| CIdx { terms: vec![(k, 1)], cst };
                NodeOp::AssignI {
                    guard: Some(Guard { terms: vec![vec![GuardAtom::In { arr: B, dim: 0, sub: var(*cst) }]] }),
                    slot: 5 + k,
                    value: CExpr::Int(var(0)),
                    flops: 1,
                }
            });
            let prog = program(nests.into_iter().chain(copies).collect());

            let (want_storage, want, want_clock, _) = run_lowered(&prog, false, &ints, &floats);
            let (storage, frame, clock, _) = run_lowered(&prog, true, &ints, &floats);

            // The variable of an inner loop that nothing reads outside a
            // loop binding it has no value a program can see: iterations
            // of the enclosing loops that run no statement, and are not
            // visited, would still have set it, and an unrolled loop
            // never sets it.
            let uses = SlotUse::of(&prog.units[0]);
            for (slot, (g, w)) in frame.ints.iter().zip(&want.ints).enumerate() {
                let unseen = (1..=2).contains(&slot) && !uses.escapes[slot];
                prop_assert!(unseen || g == w, "int slot {slot}: {g}, reference {w}");
            }
            for (g, w) in frame.regs.iter().zip(&want.regs) {
                prop_assert!(g.to_bits() == w.to_bits(), "float slot: {g:e}, reference {w:e}");
            }
            for (g, w) in storage.iter().flatten().zip(want_storage.iter().flatten()) {
                for (g, w) in g.data().iter().zip(w.data()) {
                    prop_assert!(g.to_bits() == w.to_bits(), "array cell: {g:e}, reference {w:e}");
                }
            }
            prop_assert_eq!(clock.to_bits(), want_clock.to_bits());
        }
    }

    // ---- unrolled loops ---------------------------------------------------

    fn var(slot: usize, cst: i64) -> CIdx {
        CIdx {
            terms: vec![(slot, 1)],
            cst,
        }
    }

    fn do_loop(var: usize, lo: CIdx, hi: CIdx, body: Vec<NodeOp>) -> NodeOp {
        NodeOp::Loop {
            var,
            lo,
            hi,
            step: 1,
            body,
        }
    }

    fn load(arr: usize, subs: Vec<CIdx>) -> Box<CExpr> {
        Box::new(CExpr::Load { arr, subs })
    }

    /// `guard: arr(subs) = arr(subs) − y·z`, the statement the lowering
    /// fuses.
    fn update(
        guard: Option<Guard>,
        arr: usize,
        subs: Vec<CIdx>,
        y: Box<CExpr>,
        z: Box<CExpr>,
    ) -> NodeOp {
        let yz = Box::new(CExpr::Bin(BinOp::Mul, y, z));
        NodeOp::Assign {
            guard,
            arr,
            value: CExpr::Bin(BinOp::Sub, load(arr, subs.clone()), yz),
            subs,
            flops: 2,
        }
    }

    /// The guard that `sub` lies in what the rank owns of `b`.
    fn owns_b(sub: CIdx) -> Option<Guard> {
        Some(Guard {
            terms: vec![vec![GuardAtom::In {
                arr: B,
                dim: 0,
                sub,
            }]],
        })
    }

    /// Run `ops` on `rank` lowered both ways from one frame: every array
    /// cell, the clock and every int slot but the variables in `unseen`
    /// match the plain lowering's. Returns what the full lowering
    /// decided, its int slots and the loop trips its run started.
    fn matches_plain(
        ops: Vec<NodeOp>,
        rank: usize,
        unseen: &[usize],
    ) -> (LowerStats, Vec<i64>, u64) {
        let prog = program(ops);
        let (ints, floats) = ([0; N_INTS], [0.5, 1.5, -2.0]);
        let (want_storage, want, want_clock, _) =
            run_lowered_on(&prog, rank, false, &ints, &floats);
        let (storage, got, clock, trips) = run_lowered_on(&prog, rank, true, &ints, &floats);
        for (slot, (g, w)) in got.ints.iter().zip(&want.ints).enumerate() {
            assert!(
                unseen.contains(&slot) || g == w,
                "int slot {slot}: {g}, reference {w}"
            );
        }
        for (g, w) in storage.iter().flatten().zip(want_storage.iter().flatten()) {
            for (g, w) in g.data().iter().zip(w.data()) {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "array cell: {g:e}, reference {w:e}"
                );
            }
        }
        assert_eq!(clock.to_bits(), want_clock.to_bits());
        let (_, stats) = lower_program(&ProcState::new(&prog, rank));
        (stats, got.ints, trips)
    }

    /// `do i = 1, 8; do m = 0, 3: b(i) = b(i) − a(m, 1)·a(1, m)` under a
    /// guard on `i`: on each rank the `i` loop shrinks to what it owns of
    /// `b`, and its body is four fused statements on its bases.
    #[test]
    fn unrolled_loop_inside_a_clamped_loop() {
        let (i, m) = (0, 1);
        let body = update(
            owns_b(var(i, 0)),
            B,
            vec![var(i, 0)],
            load(A, vec![var(m, 0), CIdx::cst(1)]),
            load(A, vec![CIdx::cst(1), var(m, 0)]),
        );
        let nest = do_loop(
            i,
            CIdx::cst(1),
            CIdx::cst(8),
            vec![do_loop(m, CIdx::cst(0), CIdx::cst(3), vec![body])],
        );
        for rank in 0..2 {
            let (stats, ..) = matches_plain(vec![nest.clone()], rank, &[m]);
            assert_eq!(
                (stats.loops, stats.loops_clamped, stats.loops_unrolled),
                (1, 1, 1),
                "rank {rank}"
            );
            assert_eq!(
                (stats.stmts_fused, stats.sites_in_loops, stats.sites_based),
                (4, 16, 16)
            );
        }
    }

    /// A guard on the unrolled variable is decided per copy: the copies
    /// of the values the rank does not own are dropped, and no test is
    /// left on the tape.
    #[test]
    fn guard_on_the_unrolled_variable_is_decided() {
        let (i, m) = (0, 1);
        let body = NodeOp::Assign {
            guard: owns_b(var(m, 0)),
            arr: B,
            subs: vec![var(m, 0)],
            value: CExpr::Bin(
                BinOp::Add,
                load(B, vec![var(m, 0)]),
                Box::new(CExpr::Int(var(i, 0))),
            ),
            flops: 1,
        };
        let nest = do_loop(
            i,
            CIdx::cst(1),
            CIdx::cst(2),
            vec![do_loop(m, CIdx::cst(3), CIdx::cst(7), vec![body])],
        );
        for (rank, owned) in [(0, 2), (1, 3)] {
            let (stats, ..) = matches_plain(vec![nest.clone()], rank, &[m]);
            assert_eq!(
                (stats.loops_unrolled, stats.tests_kept),
                (1, 0),
                "rank {rank}"
            );
            assert_eq!(
                stats.tests_true, owned,
                "rank {rank}: one test per copy kept"
            );
        }
    }

    /// `do p1 = 0, 3; do n = p1 + 1, 3`: the inner bounds are constants
    /// only once `p1` is pinned, and the triangle unrolls whole, the last
    /// copy of the inner loop empty.
    #[test]
    fn triangular_loop_inside_an_unrolled_loop() {
        let (i, p1, n) = (0, 1, 2);
        let body = update(
            owns_b(var(i, 0)),
            A,
            vec![var(p1, 0), var(n, 0)],
            load(A, vec![var(n, 0), var(p1, 0)]),
            load(B, vec![var(i, 0)]),
        );
        let inner = do_loop(n, var(p1, 1), CIdx::cst(3), vec![body]);
        let nest = do_loop(
            i,
            CIdx::cst(5),
            CIdx::cst(8),
            vec![do_loop(p1, CIdx::cst(0), CIdx::cst(3), vec![inner])],
        );
        let (stats, ..) = matches_plain(vec![nest], 1, &[p1, n]);
        assert_eq!((stats.loops, stats.loops_unrolled), (1, 5));
        assert_eq!(stats.stmts_fused, 3 + 2 + 1);
    }

    /// A loop whose variable is read after it is not unrolled: it stays
    /// a loop and leaves its last value.
    #[test]
    fn loop_whose_variable_escapes_stays_a_loop() {
        let (i, m) = (0, 1);
        let body = update(
            owns_b(var(i, 0)),
            B,
            vec![var(m, 5)],
            load(B, vec![var(i, 0)]),
            load(A, vec![CIdx::cst(2), CIdx::cst(3)]),
        );
        let after = NodeOp::AssignI {
            guard: None,
            slot: 3,
            value: CExpr::Int(var(m, 0)),
            flops: 1,
        };
        let inner = do_loop(m, CIdx::cst(0), CIdx::cst(4), vec![body]);
        let nest = do_loop(i, CIdx::cst(1), CIdx::cst(8), vec![inner, after]);
        let (stats, ints, _) = matches_plain(vec![nest], 1, &[]);
        assert_eq!((stats.loops, stats.loops_unrolled), (2, 0));
        assert_eq!((ints[m], ints[3]), (4, 4));
    }

    // ---- unrolled nest levels ----------------------------------------------

    /// `b(i) = b(i) − a(m, 1)·a(1, m)` where the rank owns `b(i)`.
    fn block_update(i: usize, m: usize) -> NodeOp {
        update(
            owns_b(var(i, 0)),
            B,
            vec![var(i, 0)],
            load(A, vec![var(m, 0), CIdx::cst(1)]),
            load(A, vec![CIdx::cst(1), var(m, 0)]),
        )
    }

    fn level(var: usize, lo: i64, hi: i64) -> PipeLevel {
        PipeLevel {
            var,
            lo: CIdx::cst(lo),
            hi: CIdx::cst(hi),
            step: 1,
        }
    }

    fn overlap(levels: Vec<PipeLevel>, body: Vec<NodeOp>, interior: Vec<GuardAtom>) -> NodeOp {
        NodeOp::OverlapNest {
            msgs: vec![],
            tag: 0,
            levels,
            body,
            interior,
            plan: 0,
        }
    }

    fn count(code: &[Ins], what: fn(&Ins) -> bool) -> usize {
        code.iter().filter(|ins| what(ins)).count()
    }

    /// An overlapped nest `i = 1, 8; m = 0, 3` whose interior term reads
    /// `i` and a free scalar: in each pass the `m` level lowers to four
    /// copies under one test of the term per trip of `i`, and its trips
    /// start with `i`'s — 3 and 4 trips of `i` on rank 1, the interior
    /// box and what the rank owns of `b`, each five trips.
    #[test]
    fn overlapped_inner_level_unrolls_under_one_test() {
        let (i, m, s) = (0, 1, 3);
        let interior = [var(i, 1), var(s, 0)].map(|sub| GuardAtom::In {
            arr: B,
            dim: 0,
            sub,
        });
        let ops = vec![
            NodeOp::AssignI {
                guard: None,
                slot: s,
                value: CExpr::Int(CIdx::cst(6)),
                flops: 1,
            },
            overlap(
                vec![level(i, 1, 8), level(m, 0, 3)],
                vec![block_update(i, m)],
                interior.to_vec(),
            ),
        ];
        let (stats, _, trips) = matches_plain(ops.clone(), 1, &[m]);
        assert_eq!((stats.loops, stats.loops_unrolled), (2, 2));
        assert_eq!(stats.stmts_fused, 2 * 4);
        assert_eq!(trips, 3 * (1 + 4) + 4 * (1 + 4));
        let code = main_code(ops.clone(), 1);
        let tests = count(&code, |ins| matches!(ins, Ins::Test { .. }));
        let loops = count(&code, |ins| matches!(ins, Ins::LoopEnter { .. }));
        assert_eq!((tests, loops), (2, 2), "one test and one loop per pass");
        matches_plain(ops, 0, &[m]);
    }

    /// A term that reads an inner level's variable is tested inside that
    /// level, which stays a loop: `b(i) = m` where `m + 3` is in what the
    /// rank owns of `b` runs `m = 2, 3` in the interior pass and `m = 0,
    /// 1` after them, so the last write is `m = 1`'s.
    #[test]
    fn term_on_an_inner_level_keeps_it_a_loop() {
        let (i, m) = (0, 1);
        let body = NodeOp::Assign {
            guard: owns_b(var(i, 0)),
            arr: B,
            subs: vec![var(i, 0)],
            value: CExpr::Int(var(m, 0)),
            flops: 1,
        };
        let interior = vec![GuardAtom::In {
            arr: B,
            dim: 0,
            sub: var(m, 3),
        }];
        let nest = overlap(vec![level(i, 1, 8), level(m, 0, 3)], vec![body], interior);
        let (stats, _, trips) = matches_plain(vec![nest], 1, &[m]);
        assert_eq!((stats.loops, stats.loops_unrolled), (4, 0));
        // `i` over what rank 1 owns, `m` over 2..=3 and then 0..=3
        assert_eq!(trips, 4 + 4 * 2 + 4 + 4 * 4);
    }

    /// A pipelined nest `k = 1, 2; j = 0, 3; i = 0, 2` strip-mined at `j`
    /// in chunks of one trip, inside a loop: every level is short and
    /// constant, but `j` runs once per chunk and `k` around it, so only
    /// `i` is lowered as copies.
    #[test]
    fn strip_level_and_the_levels_outside_it_stay_loops() {
        let (k, j, i, t) = (0, 1, 2, 3);
        let body = NodeOp::Assign {
            guard: None,
            arr: A,
            subs: vec![var(j, 0), var(i, 0)],
            value: CExpr::Bin(
                BinOp::Add,
                load(A, vec![var(j, 0), var(i, 0)]),
                Box::new(CExpr::Int(var(k, 0))),
            ),
            flops: 1,
        };
        let strip = Strip {
            level: 1,
            granularity: 1,
            owned: None,
            dims: vec![],
        };
        let pipe = NodeOp::Pipeline {
            levels: vec![level(k, 1, 2), level(j, 0, 3), level(i, 0, 2)],
            body: vec![body],
            strip: Some(strip),
            hops: vec![],
            tag: 0,
            plan: 0,
        };
        let time = do_loop(t, CIdx::cst(1), CIdx::cst(2), vec![pipe]);
        for rank in 0..2 {
            let (stats, _, trips) = matches_plain(vec![time.clone()], rank, &[i]);
            assert_eq!((stats.loops, stats.loops_unrolled), (3, 1), "rank {rank}");
            // per trip of `t`, four chunks: two trips of `k`, each one of
            // `j` that starts the three of `i`
            assert_eq!(trips, 2 + 2 * 4 * (2 + 2 * (1 + 3)), "rank {rank}");
        }
    }

    // ---- decided `if`s and `x − s·z` ---------------------------------------

    fn cmp(op: BinOp, x: CExpr, y: CExpr) -> Option<CExpr> {
        Some(CExpr::Bin(op, Box::new(x), Box::new(y)))
    }

    /// The instructions of the main unit lowered for `rank`.
    fn main_code(ops: Vec<NodeOp>, rank: usize) -> Vec<Ins> {
        main_code_of(&program(ops), rank)
    }

    /// [`main_code`] of any program.
    fn main_code_of(prog: &NodeProgram, rank: usize) -> Vec<Ins> {
        let (tapes, _) = lower_program(&ProcState::new(prog, rank));
        tapes[0].code.clone()
    }

    /// `binvc`'s Gauss–Jordan nest on a 3×3 block of `a`, once per point
    /// `i` of `b` the rank owns:
    ///
    /// ```text
    /// do i = 1, 8
    ///   do p1 = 1, 3
    ///     do q1 = 1, 3
    ///       if (q1 .ne. p1) then
    ///         coef = a(q1, p1)
    ///         do n = p1 + 1, 3
    ///           a(q1, n) = a(q1, n) − coef·a(p1, n)
    ///         b(i) = b(i) − coef·a(p1, 0)     ! where the rank owns b(i)
    /// ```
    ///
    /// Pinned `p1` and `q1` decide every `if`: the nest lowers to one
    /// interpreted loop of straight-line code, each update one fused
    /// instruction with `coef` a register.
    #[test]
    fn gauss_jordan_nest_lowers_straight() {
        let (i, p1, q1, n, coef) = (0, 1, 2, 3, 0);
        let update_n = update(
            None,
            A,
            vec![var(q1, 0), var(n, 0)],
            Box::new(CExpr::LoadF(coef)),
            load(A, vec![var(p1, 0), var(n, 0)]),
        );
        let update_i = update(
            owns_b(var(i, 0)),
            B,
            vec![var(i, 0)],
            Box::new(CExpr::LoadF(coef)),
            load(A, vec![var(p1, 0), CIdx::cst(0)]),
        );
        let arm = vec![
            NodeOp::AssignF {
                guard: None,
                slot: coef,
                value: *load(A, vec![var(q1, 0), var(p1, 0)]),
                flops: 0,
            },
            do_loop(n, var(p1, 1), CIdx::cst(3), vec![update_n]),
            update_i,
        ];
        let differ = cmp(BinOp::Ne, CExpr::Int(var(q1, 0)), CExpr::Int(var(p1, 0)));
        let gj = NodeOp::If {
            arms: vec![(differ, arm)],
        };
        let rows = do_loop(q1, CIdx::cst(1), CIdx::cst(3), vec![gj]);
        let nest = do_loop(
            i,
            CIdx::cst(1),
            CIdx::cst(8),
            vec![do_loop(p1, CIdx::cst(1), CIdx::cst(3), vec![rows])],
        );
        for rank in 0..2 {
            let (stats, ..) = matches_plain(vec![nest.clone()], rank, &[p1, q1, n]);
            // `p1`, three `q1` and six `n` loops unrolled; nine `if`s decided
            assert_eq!(
                (stats.loops, stats.loops_unrolled, stats.ifs_decided),
                (1, 1 + 3 + 6, 9),
                "rank {rank}"
            );
            // the three statements of each `p1 = q1` arm, and the update
            // in each `n` loop of no trip (`p1 = 3`)
            assert_eq!(stats.stmts_dropped, 3 * 3 + 2, "rank {rank}");
            // per pair `p1 ≠ q1`, two for each `p1`: `3 − p1` updates of
            // `a` and one of `b`
            assert_eq!(stats.stmts_fused, 2 * (3 + 2 + 1), "rank {rank}");
            assert_eq!(stats.sites_based, stats.sites_in_loops);
            let code = main_code(vec![nest.clone()], rank);
            assert!(!code.iter().any(|c| matches!(c, Ins::JumpIfZero { .. })));
            let reg = code.iter().filter(|c| matches!(c, Ins::MulSubReg { .. }));
            assert_eq!(reg.count(), 12);
        }
    }

    /// What the facts do not decide stays as it is: an `if` on the
    /// variable of an interpreted loop, one whose first condition is
    /// undecided and second decided, and one on a float keep their tests;
    /// a loop in their arms is not unrolled, nor, then, the loop around
    /// the second; `x − (s + 1)·z` is not fused, its factor a computed
    /// value.
    #[test]
    fn undecided_ifs_and_computed_factors_stay() {
        let (i, m, p1, s) = (0, 1, 2, 1);
        let body = || {
            let each = update(
                owns_b(var(i, 0)),
                B,
                vec![var(i, 0)],
                load(A, vec![var(m, 0), CIdx::cst(1)]),
                load(A, vec![CIdx::cst(1), var(m, 0)]),
            );
            vec![do_loop(m, CIdx::cst(0), CIdx::cst(3), vec![each])]
        };
        let on_i = NodeOp::If {
            arms: vec![(
                cmp(BinOp::Ne, CExpr::Int(var(i, 0)), CExpr::Const(6.0)),
                body(),
            )],
        };
        let later_arm = NodeOp::If {
            arms: vec![
                (
                    cmp(BinOp::Eq, CExpr::Int(var(i, 0)), CExpr::Int(CIdx::cst(6))),
                    vec![],
                ),
                (
                    cmp(BinOp::Le, CExpr::Int(var(p1, 0)), CExpr::Const(2.0)),
                    body(),
                ),
            ],
        };
        let on_float = NodeOp::If {
            arms: vec![(cmp(BinOp::Lt, CExpr::LoadF(s), CExpr::Const(1.0)), body())],
        };
        let computed = NodeOp::Assign {
            guard: owns_b(var(i, 0)),
            arr: B,
            subs: vec![var(i, 0)],
            value: CExpr::Bin(
                BinOp::Sub,
                load(B, vec![var(i, 0)]),
                Box::new(CExpr::Bin(
                    BinOp::Mul,
                    Box::new(CExpr::Bin(
                        BinOp::Add,
                        Box::new(CExpr::LoadF(s)),
                        Box::new(CExpr::Const(1.0)),
                    )),
                    load(A, vec![CIdx::cst(2), CIdx::cst(3)]),
                )),
            ),
            flops: 3,
        };
        let pinned = do_loop(p1, CIdx::cst(1), CIdx::cst(2), vec![later_arm]);
        let ops = vec![on_i, pinned, on_float, computed];
        let nest = do_loop(i, CIdx::cst(1), CIdx::cst(8), ops);
        let (stats, ..) = matches_plain(vec![nest.clone()], 1, &[m, p1]);
        // the `i` and `p1` loops, and the `m` loop in each `if`
        assert_eq!(
            (stats.loops, stats.loops_unrolled, stats.ifs_decided),
            (2 + 3, 0, 0)
        );
        assert_eq!(stats.stmts_fused, 3);
        let code = main_code(vec![nest], 1);
        let tests = code.iter().filter(|c| matches!(c, Ins::JumpIfZero { .. }));
        assert_eq!(tests.count(), 1 + 2 + 1);
        assert!(!code.iter().any(|c| matches!(c, Ins::MulSubReg { .. })));
    }

    /// A product of two NaNs returns the payload of one of them, picked
    /// by the operand order of the machine instruction. `Mul`, `MulSub`
    /// and `MulSubReg` keep the payload the serial interpreter's `x * y`
    /// keeps, under both lowerings (DESIGN §7.2, invariant 1). `a` and
    /// `b` hold NaNs that differ in their sign bit, as does `s` from `a`.
    #[test]
    fn nan_products_keep_the_serial_payload() {
        let src = "
      program nan
      parameter (n = 4)
      integer i
      double precision a(n), b(n), c(n), d(n), e(n), f(n), zero, s
!hpf$ processors p(1)
!hpf$ distribute (block) onto p :: a, b, c, d, e, f
      zero = 0.0d0
      s = -(zero / zero)
      do i = 1, n
         a(i) = zero / zero
         b(i) = -a(i)
         c(i) = 1.5d0
      enddo
      do i = 1, n
         d(i) = a(i) * b(i)
         e(i) = b(i) * a(i)
         f(i) = c(i) - a(i) * b(i)
         c(i) = c(i) - s * a(i)
      enddo
      end
";
        let program = dhpf_fortran::parse(src).expect("parses");
        let compiled = compile(&program, &CompileOptions::new()).expect("compiles");
        let prog = &compiled.program;
        let serial = run_serial(&program, &Default::default()).expect("serial run");
        let (a, b) = (serial.arrays["a"].get(&[1]), serial.arrays["b"].get(&[1]));
        assert!(a.is_nan() && b.is_nan() && a.to_bits() != b.to_bits());

        let code = main_code_of(prog, 0);
        assert!(code.iter().any(|c| matches!(c, Ins::Mul(..))));
        assert!(code.iter().any(|c| matches!(c, Ins::MulSub { .. })));
        assert!(code.iter().any(|c| matches!(c, Ins::MulSubReg { .. })));
        for opt in [true, false] {
            let (storage, ..) = run_lowered_on(prog, 0, opt, &[], &[]);
            for (g, global) in prog.arrays.iter().enumerate() {
                let name = global.name.rsplit("::").next().unwrap();
                let local = storage[g].as_ref().expect("allocated");
                for i in 1..=4 {
                    let (got, want) = (local.get(&[i]), serial.arrays[name].get(&[i]));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name}({i}) under the {} lowering: {got:e}, serial {want:e}",
                        if opt { "full" } else { "plain" }
                    );
                }
            }
        }
    }

    // ---- value numbering ---------------------------------------------------

    /// `do i = 0, 3` over `body`: an interpreted loop, its body one
    /// straight-line block.
    fn block(body: Vec<NodeOp>) -> NodeOp {
        do_loop(0, CIdx::cst(0), CIdx::cst(3), body)
    }

    fn bin(op: BinOp, x: CExpr, y: CExpr) -> CExpr {
        CExpr::Bin(op, Box::new(x), Box::new(y))
    }

    /// `arr(subs) = value`, unguarded.
    fn set(arr: usize, subs: Vec<CIdx>, value: CExpr) -> NodeOp {
        NodeOp::Assign {
            guard: None,
            arr,
            subs,
            value,
            flops: 1,
        }
    }

    /// `i` of [`block`], as a float.
    fn i_f() -> CExpr {
        CExpr::Int(var(0, 0))
    }

    /// `b(i + 5) = a(1, 1)·i; a(1, 1) = a(i, 2) + 1.5; a(i, 3) = a(1, 1)·i`:
    /// the load of `a(1, 1)` after the store to `a` reads what was stored,
    /// and only `i` is reused.
    #[test]
    fn a_load_after_a_store_to_its_array_is_not_reused() {
        let a11 = || *load(A, vec![CIdx::cst(1), CIdx::cst(1)]);
        let ops = vec![block(vec![
            set(B, vec![var(0, 5)], bin(BinOp::Mul, a11(), i_f())),
            set(
                A,
                vec![CIdx::cst(1), CIdx::cst(1)],
                bin(
                    BinOp::Add,
                    *load(A, vec![var(0, 0), CIdx::cst(2)]),
                    CExpr::Const(1.5),
                ),
            ),
            set(
                A,
                vec![var(0, 0), CIdx::cst(3)],
                bin(BinOp::Mul, a11(), i_f()),
            ),
        ])];
        let (stats, ..) = matches_plain(ops, 1, &[]);
        assert_eq!(stats.values_reused, 1);
    }

    /// `b(i + 5) = s + i; s = a(i, 1); a(i, 0) = s + i`: the sum after the
    /// float scalar's assignment is computed again.
    #[test]
    fn a_float_scalar_read_after_its_assignment_is_not_reused() {
        let s = 0;
        let sum = || bin(BinOp::Add, CExpr::LoadF(s), i_f());
        let ops = vec![block(vec![
            set(B, vec![var(0, 5)], sum()),
            NodeOp::AssignF {
                guard: None,
                slot: s,
                value: *load(A, vec![var(0, 0), CIdx::cst(1)]),
                flops: 1,
            },
            set(A, vec![var(0, 0), CIdx::cst(0)], sum()),
        ])];
        let (stats, ..) = matches_plain(ops, 1, &[]);
        assert_eq!(stats.values_reused, 1);
    }

    /// `a(i, 0) = (b(k + 5) + k)·i; k = i; a(i, 1) = (b(k + 5) + k)·i`: the
    /// load and the form over `k` are taken again after `k` is assigned;
    /// `k = i` and the second product reuse `i`.
    #[test]
    fn a_form_read_after_an_integer_assignment_is_not_reused() {
        let k = 3;
        let value = || {
            let sum = bin(BinOp::Add, *load(B, vec![var(k, 5)]), CExpr::Int(var(k, 0)));
            bin(BinOp::Mul, sum, i_f())
        };
        let ops = vec![block(vec![
            set(A, vec![var(0, 0), CIdx::cst(0)], value()),
            NodeOp::AssignI {
                guard: None,
                slot: k,
                value: CExpr::Int(var(0, 0)),
                flops: 1,
            },
            set(A, vec![var(0, 0), CIdx::cst(1)], value()),
        ])];
        let (stats, ..) = matches_plain(ops, 1, &[]);
        assert_eq!(stats.values_reused, 2);
    }

    /// `a(i, 0) = x·y; a(i, 1) = y·x; a(i, 2) = x·y` over NaNs of two
    /// payloads: the two products are two values, each the payload of its
    /// first operand; the third statement reuses the first's.
    #[test]
    fn products_in_both_orders_are_two_values() {
        let x = CExpr::Const(f64::from_bits(0x7ff8_0000_0000_0001));
        let y = CExpr::Const(f64::from_bits(0xfff8_0000_0000_0002));
        let cell = |j| vec![var(0, 0), CIdx::cst(j)];
        let ops = vec![block(vec![
            set(A, cell(0), bin(BinOp::Mul, x.clone(), y.clone())),
            set(A, cell(1), bin(BinOp::Mul, y.clone(), x.clone())),
            set(A, cell(2), bin(BinOp::Mul, x, y)),
        ])];
        let (stats, ..) = matches_plain(ops.clone(), 1, &[]);
        assert_eq!(stats.values_reused, 1);
        let (storage, ..) = run_lowered(&program(ops), true, &[], &[]);
        let a = storage[A].as_ref().expect("allocated");
        let (xy, yx) = (a.get(&[2, 0]), a.get(&[2, 1]));
        assert_ne!(xy.to_bits(), yx.to_bits(), "{xy:e}, {yx:e}");
    }

    /// `if (i .ne. 2) a(i, 0) = s·i; a(i, 1) = s·i`: the arm may not have
    /// run, so the product after it is computed again; `i` from the
    /// condition is reused in the arm, which falls through into it.
    #[test]
    fn a_value_computed_in_an_arm_is_not_reused_after_it() {
        let product = || bin(BinOp::Mul, CExpr::LoadF(1), i_f());
        let arm = NodeOp::If {
            arms: vec![(
                cmp(BinOp::Ne, i_f(), CExpr::Const(2.0)),
                vec![set(A, vec![var(0, 0), CIdx::cst(0)], product())],
            )],
        };
        let after = set(A, vec![var(0, 0), CIdx::cst(1)], product());
        let (stats, ..) = matches_plain(vec![block(vec![arm, after])], 1, &[]);
        assert_eq!(stats.values_reused, 1);
    }

    /// `-c` of a constant is a constant register holding `-c`, bit for
    /// bit: `-0.0` and the sign-flipped payload of a NaN.
    #[test]
    fn negated_constants_fold_bitwise() {
        let cases: [(u64, u64); 4] = [
            (0x0000_0000_0000_0000, 0x8000_0000_0000_0000),
            (0x8000_0000_0000_0000, 0x0000_0000_0000_0000),
            (0x7ff8_0000_0000_1234, 0xfff8_0000_0000_1234),
            (0xfff4_0000_0000_0001, 0x7ff4_0000_0000_0001),
        ];
        let ops: Vec<NodeOp> = (cases.iter().enumerate())
            .map(|(j, &(c, _))| {
                let value = CExpr::Neg(Box::new(CExpr::Const(f64::from_bits(c))));
                set(A, vec![CIdx::cst(0), CIdx::cst(j as i64)], value)
            })
            .collect();
        let code = main_code(ops.clone(), 1);
        assert!(!code.iter().any(|c| matches!(c, Ins::Neg(..))), "{code:?}");
        for opt in [true, false] {
            let (storage, ..) = run_lowered(&program(ops.clone()), opt, &[], &[]);
            let a = storage[A].as_ref().expect("allocated");
            for (j, &(_, want)) in cases.iter().enumerate() {
                assert_eq!(a.get(&[0, j as i64]).to_bits(), want, "case {j}, opt {opt}");
            }
        }
    }

    /// No tape of BT negates a constant at run time: `-0.01d0` of its
    /// block assembly is a constant register.
    #[test]
    fn bt_negates_no_constant() {
        use dhpf_nas::{Class, Kernel};
        let mut opts = CompileOptions::new();
        opts.bindings = Kernel::Bt.bindings(Class::S, 1);
        let compiled = compile(&Kernel::Bt.parse(), &opts).expect("BT compiles");
        let (tapes, _) = lower_program(&ProcState::new(&compiled.program, 0));
        for t in &tapes {
            let consts = t.unit.n_floats..t.unit.n_floats + t.consts.len();
            let negated = t.code.iter().filter(|c| match c {
                Ins::Neg(_, a) => consts.contains(&(*a as usize)),
                _ => false,
            });
            assert_eq!(negated.count(), 0, "{}", t.unit.name);
        }
    }

    /// One callee reached with two different bindings of its array
    /// dummies is lowered once per binding, and runs right.
    #[test]
    fn callee_is_specialised_per_array_binding() {
        let src = "
      program two
      parameter (n = 16)
      integer np1, i
      double precision a(n), b(n)
!hpf$ processors p(np1)
!hpf$ distribute (block) onto p :: a, b
      do i = 1, n
         a(i) = 0.5d0 + 0.01d0 * i
         b(i) = 0.75d0 + 0.02d0 * i
      enddo
      call relax(a, b)
      call relax(b, a)
      call relax(a, b)
      end

      subroutine relax(x, y)
      parameter (n = 16)
      integer np1, i
      double precision x(n), y(n)
!hpf$ processors p(np1)
!hpf$ distribute (block) onto p :: x, y
      do i = 1, n
         x(i) = 0.25d0 * y(i) + 0.5d0 * x(i)
      enddo
      end
";
        let program = dhpf_fortran::parse(src).expect("parses");
        let compiled = compile(&program, &CompileOptions::new().bind("np1", 4)).expect("compiles");
        let prog = &compiled.program;

        let st = ProcState::new(prog, 2);
        let (tapes, _) = lower_program(&st);
        let relax = prog.unit_index["relax"];
        let mut bindings: Vec<&[usize]> = tapes
            .iter()
            .filter(|t| std::ptr::eq(t.unit, &prog.units[relax]))
            .map(|t| &t.binding[..])
            .collect();
        bindings.sort();
        assert_eq!(bindings.len(), 2, "three calls, two distinct bindings");
        let (first, second) = (bindings[0], bindings[1]);
        assert!(first.iter().all(|g| *g != UNBOUND));
        assert_eq!(
            first.iter().rev().collect::<Vec<_>>(),
            second.iter().collect::<Vec<_>>()
        );

        let serial = run_serial(&program, &Default::default()).expect("serial run");
        let par = run_node_program(prog, MachineConfig::sp2(4)).expect("parallel run");
        for name in ["a", "b"] {
            let (s, p) = (&serial.arrays[name].data, &par.arrays[name].data);
            assert_eq!(s.len(), p.len());
            for (s, p) in s.iter().zip(p) {
                assert_eq!(s.to_bits(), p.to_bits(), "array {name}");
            }
        }
    }
}
