//! Per-processor execution traces and space-time diagram rendering.
//!
//! The paper's Figures 8.1–8.4 are space-time diagrams of one benchmark
//! timestep on 16 processors: one row per processor, green bars for
//! computation, blue lines for messages, white for idle. We render the
//! same information as text (one character per time bin) and as CSV for
//! external plotting.

use std::fmt::Write as _;

/// One traced event on a processor.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    pub t0: f64,
    pub t1: f64,
    pub kind: EventKind,
    /// Provenance: index into the compiled program's plan table
    /// (`NodeProgram.provenance`) identifying the communication nest
    /// this event was issued for, when the interpreter knows it.
    pub nest: Option<u32>,
    /// How many logical array sections the transfer this event belongs
    /// to carries (per-peer aggregation packs several plan messages
    /// into one physical message). `1` for unaggregated transfers and
    /// for events with no associated transfer.
    pub parts: u32,
}

impl Event {
    pub fn new(t0: f64, t1: f64, kind: EventKind) -> Self {
        Event {
            t0,
            t1,
            kind,
            nest: None,
            parts: 1,
        }
    }
}

/// Trace event kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Local computation.
    Compute,
    /// Send overhead interval.
    Send { to: usize, bytes: u64 },
    /// Receive that completed without waiting.
    Recv { from: usize, bytes: u64 },
    /// Receive that stalled waiting for the message to arrive.
    RecvWait { from: usize, bytes: u64 },
    /// Nonblocking receive posted (zero-width; free in virtual time).
    RecvPost { from: usize, req: u64 },
    /// Wait on a posted receive that completed without stalling: the
    /// compute issued since the post covered the message's flight.
    Wait { from: usize, bytes: u64, req: u64 },
    /// Wait on a posted receive that still stalled for the residual
    /// flight time the intervening compute did not hide.
    WaitStall { from: usize, bytes: u64, req: u64 },
    /// Waiting in a barrier.
    Barrier,
    /// Named phase marker (zero-width).
    Phase(String),
}

impl EventKind {
    /// For a receive completion — blocking (`Recv`/`RecvWait`) or the
    /// wait on a posted request (`Wait`/`WaitStall`) — the source rank,
    /// the payload bytes, and the request id of a wait.
    pub fn recv_completion(&self) -> Option<(usize, u64, Option<u64>)> {
        match *self {
            EventKind::Recv { from, bytes } | EventKind::RecvWait { from, bytes } => {
                Some((from, bytes, None))
            }
            EventKind::Wait { from, bytes, req } | EventKind::WaitStall { from, bytes, req } => {
                Some((from, bytes, Some(req)))
            }
            _ => None,
        }
    }

    /// Is this a receive completion the message's arrival bound (the
    /// receiver stalled)?
    pub fn is_stall(&self) -> bool {
        matches!(
            self,
            EventKind::RecvWait { .. } | EventKind::WaitStall { .. }
        )
    }
}

/// The event log of one processor.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub rank: usize,
    pub events: Vec<Event>,
}

impl Trace {
    pub fn new(rank: usize) -> Self {
        Trace {
            rank,
            events: Vec::new(),
        }
    }

    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Total busy (compute) seconds.
    pub fn busy(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Compute))
            .map(|e| e.t1 - e.t0)
            .sum()
    }

    /// Total seconds stalled in receives/waits/barriers.
    pub fn stalled(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind.is_stall() || e.kind == EventKind::Barrier)
            .map(|e| e.t1 - e.t0)
            .sum()
    }

    /// End time of the last event.
    pub fn end(&self) -> f64 {
        self.events.iter().map(|e| e.t1).fold(0.0, f64::max)
    }
}

/// Render a textual space-time diagram of several traces over
/// `[t_start, t_end]`, `width` characters wide.
///
/// Legend: `#` compute, `s` send overhead, `r` receive, `~` waiting on a
/// message, `|` barrier wait, `.` idle.
///
/// After the rows, every `~` stall is attributed: one `stall:` line per
/// (waiting rank, sending peer) pair with the total seconds spent
/// waiting and the bytes waited for — the same attribution the CSV
/// export carries in its `recv_wait` rows, so the text and CSV views of
/// one trace never disagree about who stalled on whom.
pub fn render_spacetime(traces: &[Trace], t_start: f64, t_end: f64, width: usize) -> String {
    // `partial_cmp` so a NaN bound falls through to the empty window
    let ordered = t_end.partial_cmp(&t_start) == Some(std::cmp::Ordering::Greater);
    if !ordered || width == 0 {
        return format!(
            "space-time [{t_start:.4}s .. {t_end:.4}s]: empty window, nothing to render\n"
        );
    }
    let dt = (t_end - t_start) / width as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "space-time [{:.4}s .. {:.4}s], {} procs, {:.2} ms/char",
        t_start,
        t_end,
        traces.len(),
        dt * 1e3
    );
    let _ = writeln!(
        out,
        "legend: '#'=compute  's'=send  'r'=recv/wait  '~'=stalled  '|'=barrier  '.'=idle"
    );
    for tr in traces {
        let mut row = vec![b'.'; width];
        for e in &tr.events {
            let (c, priority) = match e.kind {
                EventKind::Compute => (b'#', 1u8),
                EventKind::Send { .. } => (b's', 3),
                EventKind::Recv { .. } | EventKind::Wait { .. } => (b'r', 3),
                EventKind::RecvWait { .. } | EventKind::WaitStall { .. } => (b'~', 2),
                EventKind::Barrier => (b'|', 2),
                EventKind::RecvPost { .. } | EventKind::Phase(_) => continue,
            };
            if e.t1 <= t_start || e.t0 >= t_end {
                continue;
            }
            let b0 = (((e.t0.max(t_start) - t_start) / dt) as usize).min(width - 1);
            let b1 = (((e.t1.min(t_end) - t_start) / dt).ceil() as usize).clamp(b0 + 1, width);
            for slot in &mut row[b0..b1] {
                let cur_pri = match *slot {
                    b'.' => 0,
                    b'#' => 1,
                    b'~' | b'|' => 2,
                    _ => 3,
                };
                if priority > cur_pri {
                    *slot = c;
                }
            }
        }
        let _ = writeln!(out, "p{:<3} {}", tr.rank, String::from_utf8(row).unwrap());
    }
    // Stall attribution: aggregate RecvWait time/bytes by (rank, peer,
    // provenanced nest) so every line is joinable against the plan table.
    type StallKey = (usize, usize, Option<u32>);
    let mut stalls: std::collections::BTreeMap<StallKey, (f64, u64, usize)> =
        std::collections::BTreeMap::new();
    for tr in traces {
        for e in &tr.events {
            if let (true, Some((from, bytes, _))) = (e.kind.is_stall(), e.kind.recv_completion()) {
                let s = stalls.entry((tr.rank, from, e.nest)).or_insert((0.0, 0, 0));
                s.0 += e.t1 - e.t0;
                s.1 += bytes;
                s.2 += 1;
            }
        }
    }
    for ((rank, from, nest), (secs, bytes, n)) in &stalls {
        let prov = match nest {
            Some(id) => format!(" [nest {id}]"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "stall: p{rank} waited {:.4}s on p{from} ({bytes} B in {n} recv(s)){prov}",
            secs
        );
    }
    out
}

/// Export traces as CSV: `rank,t0,t1,kind,peer,bytes,nest,parts`.
///
/// The `nest` column is the event's plan-table index (empty when the
/// event has no provenance), matching the ids in `dhpf profile` output.
/// The `parts` column is the number of packed array sections the
/// event's transfer carries (1 unless per-peer aggregation packed
/// several plan messages together).
pub fn to_csv(traces: &[Trace]) -> String {
    let mut out = String::from("rank,t0,t1,kind,peer,bytes,nest,parts\n");
    for tr in traces {
        for e in &tr.events {
            let (kind, peer, bytes) = match &e.kind {
                EventKind::Compute => ("compute", String::new(), 0),
                EventKind::Send { to, bytes } => ("send", to.to_string(), *bytes),
                EventKind::Recv { from, bytes } => ("recv", from.to_string(), *bytes),
                EventKind::RecvWait { from, bytes } => ("recv_wait", from.to_string(), *bytes),
                EventKind::RecvPost { from, .. } => ("recv_post", from.to_string(), 0),
                EventKind::Wait { from, bytes, .. } => ("wait", from.to_string(), *bytes),
                EventKind::WaitStall { from, bytes, .. } => {
                    ("wait_stall", from.to_string(), *bytes)
                }
                EventKind::Barrier => ("barrier", String::new(), 0),
                EventKind::Phase(name) => ("phase", name.clone(), 0),
            };
            let nest = e.nest.map(|n| n.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{:.9},{:.9},{},{},{},{},{}",
                tr.rank, e.t0, e.t1, kind, peer, bytes, nest, e.parts
            );
        }
    }
    out
}

/// Summary line per processor: busy %, stalled %, end time.
pub fn utilization_summary(traces: &[Trace]) -> String {
    let total_end = traces.iter().map(|t| t.end()).fold(0.0, f64::max);
    let mut out = String::new();
    let _ = writeln!(out, "rank  busy%   wait%   end(s)");
    for tr in traces {
        let busy = if total_end > 0.0 {
            100.0 * tr.busy() / total_end
        } else {
            0.0
        };
        let wait = if total_end > 0.0 {
            100.0 * tr.stalled() / total_end
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "p{:<4} {:6.1}  {:6.1}  {:.4}",
            tr.rank,
            busy,
            wait,
            tr.end()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_trace() -> Trace {
        let mut t = Trace::new(0);
        t.push(Event::new(0.0, 4.0, EventKind::Compute));
        t.push(Event::new(4.0, 5.0, EventKind::Send { to: 1, bytes: 80 }));
        t.push(Event::new(
            5.0,
            8.0,
            EventKind::RecvWait { from: 1, bytes: 80 },
        ));
        t
    }

    #[test]
    fn busy_and_stalled_accounting() {
        let t = mk_trace();
        assert_eq!(t.busy(), 4.0);
        assert_eq!(t.stalled(), 3.0);
        assert_eq!(t.end(), 8.0);
    }

    #[test]
    fn spacetime_renders_rows() {
        let t = mk_trace();
        let s = render_spacetime(&[t], 0.0, 8.0, 8);
        let row = s.lines().nth(2).unwrap();
        assert!(row.starts_with("p0"));
        let cells = &row[5..];
        assert_eq!(cells, "####s~~~");
    }

    #[test]
    fn spacetime_priority_comm_over_compute() {
        let mut t = Trace::new(0);
        t.push(Event::new(0.0, 8.0, EventKind::Compute));
        t.push(Event::new(3.0, 4.0, EventKind::Send { to: 1, bytes: 8 }));
        let s = render_spacetime(&[t], 0.0, 8.0, 8);
        let row = s.lines().nth(2).unwrap();
        assert_eq!(&row[5..], "###s####");
    }

    #[test]
    fn spacetime_attributes_stalls() {
        let mut t1 = mk_trace(); // p0 waits 3s on p1 for 80 B
        t1.push(Event::new(
            8.0,
            9.0,
            EventKind::RecvWait { from: 1, bytes: 16 },
        ));
        let mut t2 = Trace::new(1);
        t2.push(Event::new(0.0, 8.0, EventKind::Compute));
        let s = render_spacetime(&[t1, t2], 0.0, 9.0, 9);
        // both RecvWaits from p1 aggregate into one attribution line,
        // matching the CSV's per-event recv_wait rows
        assert!(s.contains("stall: p0 waited 4.0000s on p1 (96 B in 2 recv(s))"));
        // p1 never stalled: no attribution line for it
        assert!(!s.contains("stall: p1"));
    }

    #[test]
    fn wait_stall_counts_as_stalled_and_attributes() {
        let mut t = Trace::new(2);
        t.push(Event::new(
            0.0,
            0.0,
            EventKind::RecvPost { from: 1, req: 0 },
        ));
        t.push(Event::new(0.0, 4.0, EventKind::Compute));
        t.push(Event::new(
            4.0,
            6.0,
            EventKind::WaitStall {
                from: 1,
                bytes: 32,
                req: 0,
            },
        ));
        assert_eq!(t.stalled(), 2.0);
        let s = render_spacetime(&[t.clone()], 0.0, 6.0, 6);
        assert!(s.contains("stall: p2 waited 2.0000s on p1 (32 B in 1 recv(s))"));
        let csv = to_csv(&[t]);
        assert!(csv.contains("recv_post"));
        assert!(csv.contains("wait_stall"));
    }

    #[test]
    fn csv_has_all_rows() {
        let t = mk_trace();
        let csv = to_csv(&[t]);
        assert_eq!(csv.lines().count(), 4); // header + 3 events
        assert!(csv.contains("recv_wait"));
    }

    #[test]
    fn utilization_summary_format() {
        let s = utilization_summary(&[mk_trace()]);
        assert!(s.contains("p0"));
        assert!(s.contains("50.0")); // busy 4/8
    }

    #[test]
    fn empty_and_zero_length_traces_produce_finite_summaries() {
        // No traces at all.
        let s = utilization_summary(&[]);
        assert!(!s.contains("NaN") && !s.contains("inf"));
        // A rank with an empty event log next to a normal one.
        let empty = Trace::new(1);
        assert_eq!(empty.busy(), 0.0);
        assert_eq!(empty.stalled(), 0.0);
        assert_eq!(empty.end(), 0.0);
        let s = utilization_summary(&[mk_trace(), empty.clone()]);
        assert!(s.contains("p1") && !s.contains("NaN"));
        // All-empty run: end time 0 must not divide.
        let s = utilization_summary(&[Trace::new(0), Trace::new(1)]);
        assert!(s.contains("0.0") && !s.contains("NaN"));
    }

    #[test]
    fn spacetime_degenerate_window_does_not_panic() {
        let t = mk_trace();
        // zero-length and inverted windows, and zero width
        for (a, b, w) in [(0.0, 0.0, 8), (5.0, 2.0, 8), (0.0, 8.0, 0)] {
            let s = render_spacetime(std::slice::from_ref(&t), a, b, w);
            assert!(s.contains("empty window"), "window [{a},{b}] width {w}");
        }
        // NaN bounds must also fall into the guard, not the division
        let s = render_spacetime(&[t], f64::NAN, f64::NAN, 4);
        assert!(s.contains("empty window"));
    }

    #[test]
    fn csv_and_stall_lines_carry_provenance() {
        let mut t = Trace::new(0);
        let mut e = Event::new(0.0, 2.0, EventKind::RecvWait { from: 1, bytes: 64 });
        e.nest = Some(17);
        t.push(e);
        t.push(Event::new(2.0, 3.0, EventKind::Compute));
        let csv = to_csv(&[t.clone()]);
        assert!(csv.starts_with("rank,t0,t1,kind,peer,bytes,nest,parts\n"));
        assert!(csv.contains("recv_wait,1,64,17,1"));
        assert!(csv.contains("compute,,0,,1\n")); // unprovenanced => empty nest cell
        let s = render_spacetime(&[t], 0.0, 3.0, 3);
        assert!(s.contains("[nest 17]"));
    }
}
