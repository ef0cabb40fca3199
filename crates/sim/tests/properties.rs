//! Property suites for the simulation primitives under random operation
//! sequences.

use gpuflow_sim::{
    Acquire, Engine, FairShareLink, FcfsPool, FlowId, GroupedLink, SimDuration, SimTime,
};
use proptest::prelude::*;

/// Bytes of slack below which a flow counts as finished (the links'
/// own threshold).
const EPS_BYTES: f64 = 1.0;

/// The previous grouped link — max-min water-filling recomputed from
/// scratch over every flow on each call, harvest into a fresh `Vec` —
/// kept as the oracle for the cached-rate implementation.
struct ReferenceGroupedLink {
    global_bps: f64,
    group_cap_bps: f64,
    groups: usize,
    /// `(id, group, remaining bytes)`, ascending by id.
    flows: Vec<(FlowId, usize, f64)>,
    last_update: SimTime,
    next_flow_id: FlowId,
}

impl ReferenceGroupedLink {
    fn new(global_bps: f64, groups: usize, group_cap_bps: f64) -> Self {
        ReferenceGroupedLink {
            global_bps,
            group_cap_bps,
            groups,
            flows: Vec::new(),
            last_update: SimTime::ZERO,
            next_flow_id: 0,
        }
    }

    fn group_rates(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.groups];
        for &(_, g, _) in &self.flows {
            counts[g] += 1;
        }
        let mut rates = vec![0.0; self.groups];
        let mut order: Vec<usize> = (0..self.groups).filter(|&g| counts[g] > 0).collect();
        order.sort_by(|&a, &b| {
            let ca = self.group_cap_bps / counts[a] as f64;
            let cb = self.group_cap_bps / counts[b] as f64;
            ca.partial_cmp(&cb).expect("finite caps")
        });
        let mut remaining = self.global_bps;
        let mut flows_left: usize = counts.iter().sum();
        for g in order {
            let fair = remaining / flows_left as f64;
            let cap = self.group_cap_bps / counts[g] as f64;
            let r = cap.min(fair);
            rates[g] = r;
            remaining -= r * counts[g] as f64;
            flows_left -= counts[g];
        }
        rates
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last_update).as_secs_f64();
        if dt > 0.0 && !self.flows.is_empty() {
            let rates = self.group_rates();
            for (_, g, remaining) in &mut self.flows {
                *remaining = (*remaining - rates[*g] * dt).max(0.0);
            }
        }
        self.last_update = now;
    }

    fn start(&mut self, now: SimTime, group: usize, bytes: f64) -> FlowId {
        self.advance(now);
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        self.flows.push((id, group, bytes));
        id
    }

    fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        if self.flows.is_empty() {
            return None;
        }
        let rates = self.group_rates();
        let min_secs = self
            .flows
            .iter()
            .map(|&(_, g, remaining)| {
                if remaining <= EPS_BYTES {
                    0.0
                } else {
                    remaining / rates[g]
                }
            })
            .fold(f64::INFINITY, f64::min);
        if min_secs <= 0.0 {
            return Some(now);
        }
        let ns = (min_secs * 1e9).ceil().max(1.0) as u64;
        Some(now + SimDuration::from_nanos(ns))
    }

    fn harvest(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        let done: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|f| f.2 <= EPS_BYTES)
            .map(|f| f.0)
            .collect();
        self.flows.retain(|f| f.2 > EPS_BYTES);
        done
    }

    fn aggregate_rate(&self) -> f64 {
        let rates = self.group_rates();
        self.flows.iter().map(|&(_, g, _)| rates[g]).sum()
    }
}

/// The previous fair-share link, harvesting into a fresh `Vec` — the
/// oracle for the buffer-filling `harvest`.
struct ReferenceFairShareLink {
    capacity_bps: f64,
    per_flow_cap_bps: f64,
    /// `(id, remaining bytes)`, ascending by id.
    flows: Vec<(FlowId, f64)>,
    last_update: SimTime,
    next_flow_id: FlowId,
}

impl ReferenceFairShareLink {
    fn new(capacity_bps: f64, per_flow_cap_bps: f64) -> Self {
        ReferenceFairShareLink {
            capacity_bps,
            per_flow_cap_bps,
            flows: Vec::new(),
            last_update: SimTime::ZERO,
            next_flow_id: 0,
        }
    }

    fn rate_per_flow(&self) -> f64 {
        match self.flows.len() {
            0 => 0.0,
            k => (self.capacity_bps / k as f64).min(self.per_flow_cap_bps),
        }
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            let drained = self.rate_per_flow() * dt;
            for (_, remaining) in &mut self.flows {
                *remaining = (*remaining - drained).max(0.0);
            }
        }
        self.last_update = now;
    }

    fn start(&mut self, now: SimTime, bytes: f64) -> FlowId {
        self.advance(now);
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        self.flows.push((id, bytes));
        id
    }

    fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let min_remaining = self.flows.iter().map(|f| f.1).fold(f64::INFINITY, f64::min);
        if min_remaining.is_infinite() {
            return None;
        }
        if min_remaining <= EPS_BYTES {
            return Some(now);
        }
        let secs = min_remaining / self.rate_per_flow();
        let ns = (secs * 1e9).ceil().max(1.0) as u64;
        Some(now + SimDuration::from_nanos(ns))
    }

    fn harvest(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        let done: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|f| f.1 <= EPS_BYTES)
            .map(|f| f.0)
            .collect();
        self.flows.retain(|f| f.1 > EPS_BYTES);
        done
    }
}

/// Flow sizes, drawn by index. Repeated sizes finish together (several
/// ids in one harvest); zero-byte flows finish at once.
const FLOW_BYTES: [f64; 6] = [0.0, 1e3, 1e3, 4e4, 2.5e5, 1e6];

/// `(backend, group front-end)` rates: front-end bound, backend bound,
/// and mixed regimes of the water-filling.
const GROUPED_RATES: [(f64, f64); 4] = [(8e5, 1e5), (1e6, 5e5), (3e5, 1e6), (1e6, 3.3e5)];

/// `(capacity, per-flow cap)` of the fair-share oracle runs.
const FAIR_SHARE_RATES: [(f64, f64); 3] = [(1e6, f64::INFINITY), (1e6, 2e5), (3e5, 1e6)];

/// The previous engine implementation — a `BinaryHeap` min-ordered on
/// (time, seq) — kept here as the behavioural oracle for the calendar
/// queue.
struct ReferenceHeap {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, u64)>>,
    now: SimTime,
    next_seq: u64,
}

impl ReferenceHeap {
    fn new() -> Self {
        ReferenceHeap {
            heap: Default::default(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    fn schedule_at(&mut self, time: SimTime, payload: u64) {
        assert!(time >= self.now);
        self.heap
            .push(std::cmp::Reverse((time, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|r| r.0 .0)
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        let std::cmp::Reverse((t, seq, payload)) = self.heap.pop()?;
        self.now = t;
        Some((t, seq, payload))
    }
}

proptest! {
    /// A pool never exceeds its capacity and serves waiters strictly
    /// FIFO, under any interleaving of acquires and releases.
    #[test]
    fn pool_respects_capacity_and_fifo(
        capacity in 1usize..8,
        ops in prop::collection::vec(prop::bool::ANY, 1..200),
    ) {
        let mut pool: FcfsPool<u32> = FcfsPool::new(capacity);
        let mut t = SimTime::ZERO;
        let mut next_ticket = 0u32;
        let mut queued: std::collections::VecDeque<u32> = Default::default();
        let mut held = 0usize;
        for op in ops {
            t += SimDuration::from_micros(1);
            if op {
                match pool.try_acquire(t, next_ticket) {
                    Acquire::Granted => {
                        prop_assert!(queued.is_empty(), "grants only when nobody waits");
                        held += 1;
                    }
                    Acquire::Queued => queued.push_back(next_ticket),
                }
                next_ticket += 1;
            } else if held > 0 {
                match pool.release(t) {
                    Some(ticket) => {
                        // FIFO handover to the oldest waiter.
                        prop_assert_eq!(Some(ticket), queued.pop_front());
                    }
                    None => {
                        prop_assert!(queued.is_empty());
                        held -= 1;
                    }
                }
            }
            prop_assert!(pool.in_use() <= capacity);
            prop_assert_eq!(pool.in_use(), held);
            prop_assert_eq!(pool.queue_len(), queued.len());
        }
    }

    /// Utilization accounting integrates to at most capacity x elapsed.
    #[test]
    fn pool_utilization_bounded(
        capacity in 1usize..6,
        holds in prop::collection::vec(1u64..1000, 1..50),
    ) {
        let mut pool: FcfsPool<usize> = FcfsPool::new(capacity);
        let mut t = SimTime::ZERO;
        for (i, h) in holds.iter().enumerate() {
            if pool.available() > 0 {
                pool.try_acquire(t, i);
            } else {
                pool.release(t);
            }
            t += SimDuration::from_micros(*h);
        }
        let u = pool.utilization(t);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
    }

    /// Two links fed the same flows complete them in the same order
    /// (determinism), and a faster link never finishes later.
    #[test]
    fn link_is_deterministic_and_monotone_in_capacity(
        sizes in prop::collection::vec(10.0f64..1e6, 1..30),
    ) {
        let drain = |capacity: f64| {
            let mut link = FairShareLink::new(capacity);
            for (i, &s) in sizes.iter().enumerate() {
                link.start(SimTime::from_nanos(i as u64 * 1000), s);
            }
            let mut now = SimTime::from_nanos(sizes.len() as u64 * 1000);
            let mut done = Vec::new();
            let mut finished = Vec::new();
            while let Some(tc) = link.next_completion(now) {
                now = tc.max(now);
                link.harvest(now, &mut finished);
                done.extend_from_slice(&finished);
            }
            (done, now)
        };
        let (order_a, end_a) = drain(1e6);
        let (order_b, end_b) = drain(1e6);
        prop_assert_eq!(&order_a, &order_b);
        prop_assert_eq!(end_a, end_b);
        let (_, end_fast) = drain(4e6);
        prop_assert!(end_fast <= end_a, "4x capacity cannot finish later");
    }

    /// The grouped link drains exactly its flows whatever the group mix,
    /// and total completion time is bounded below by bytes/capacity.
    #[test]
    fn grouped_link_completion_bounds(
        flows in prop::collection::vec((0usize..4, 1e3f64..1e6), 1..40),
    ) {
        let global = 1e6;
        let mut link = GroupedLink::new(global, 4, 5e5);
        let total: f64 = flows.iter().map(|f| f.1).sum();
        for &(g, bytes) in &flows {
            link.start(SimTime::ZERO, g, bytes);
        }
        let mut now = SimTime::ZERO;
        let mut done = 0usize;
        let mut finished = Vec::new();
        while let Some(tc) = link.next_completion(now) {
            now = tc.max(now);
            link.harvest(now, &mut finished);
            done += finished.len();
        }
        prop_assert_eq!(done, flows.len());
        // Work conservation lower bound (generous epsilon for ns ticks).
        prop_assert!(now.as_secs_f64() + 1e-6 >= total / global);
    }

    /// The cached-rate grouped link agrees bit for bit with the
    /// from-scratch water-filling under random start/harvest sequences
    /// over up to 8 groups: same next completion, same harvested ids,
    /// same aggregate rate bits at every step. "Start in every group"
    /// steps produce tied per-group counts, which the stable sort must
    /// order the same way.
    #[test]
    fn grouped_link_matches_from_scratch_reference(
        setup in (0usize..4, 1usize..9),
        ops in prop::collection::vec((0u64..5, (0usize..8, 0usize..6), 0u64..400_000), 1..120),
    ) {
        let (global, cap) = GROUPED_RATES[setup.0];
        let groups = setup.1;
        let mut link = GroupedLink::new(global, groups, cap);
        let mut reference = ReferenceGroupedLink::new(global, groups, cap);
        // Stale contents must be replaced, not appended to.
        let mut done = vec![FlowId::MAX];
        let mut now = SimTime::ZERO;
        // Past the random ops, drain until the link is idle.
        for step in 0.. {
            if step >= ops.len() && link.active_flows() == 0 {
                break;
            }
            prop_assert!(step < ops.len() + 10_000, "the link drains");
            let (kind, (g, size), gap) = ops.get(step).copied().unwrap_or((3, (0, 0), 0));
            let bytes = FLOW_BYTES[size];
            match kind {
                0 | 1 => {
                    now += SimDuration::from_nanos(gap);
                    prop_assert_eq!(link.start(now, g % groups, bytes), reference.start(now, g % groups, bytes));
                }
                2 => {
                    now += SimDuration::from_nanos(gap);
                    for g in 0..groups {
                        prop_assert_eq!(link.start(now, g, bytes), reference.start(now, g, bytes));
                    }
                }
                _ => {
                    // Harvest at the next completion, or at an arbitrary
                    // later instant.
                    now = match (kind, link.next_completion(now)) {
                        (3, Some(t)) => t.max(now),
                        _ => now + SimDuration::from_nanos(gap),
                    };
                    link.harvest(now, &mut done);
                    prop_assert_eq!(&done, &reference.harvest(now));
                }
            }
            prop_assert_eq!(link.next_completion(now), reference.next_completion(now));
            prop_assert_eq!(link.aggregate_rate().to_bits(), reference.aggregate_rate().to_bits());
            prop_assert_eq!(link.active_flows(), reference.flows.len());
        }
    }

    /// The buffer-filling fair-share `harvest` returns the oracle's ids,
    /// ascending, at every step of random start/harvest sequences.
    #[test]
    fn fair_share_harvest_matches_reference(
        rates in 0usize..3,
        ops in prop::collection::vec((0u64..4, 0usize..6, 0u64..400_000), 1..120),
    ) {
        let (capacity, per_flow_cap) = FAIR_SHARE_RATES[rates];
        let mut link = FairShareLink::with_per_flow_cap(capacity, per_flow_cap);
        let mut reference = ReferenceFairShareLink::new(capacity, per_flow_cap);
        let mut done = vec![FlowId::MAX];
        let mut now = SimTime::ZERO;
        for step in 0.. {
            if step >= ops.len() && link.active_flows() == 0 {
                break;
            }
            prop_assert!(step < ops.len() + 10_000, "the link drains");
            let (kind, size, gap) = ops.get(step).copied().unwrap_or((2, 0, 0));
            match kind {
                0 | 1 => {
                    now += SimDuration::from_nanos(gap);
                    let bytes = FLOW_BYTES[size];
                    prop_assert_eq!(link.start(now, bytes), reference.start(now, bytes));
                }
                _ => {
                    now = match (kind, link.next_completion(now)) {
                        (2, Some(t)) => t.max(now),
                        _ => now + SimDuration::from_nanos(gap),
                    };
                    link.harvest(now, &mut done);
                    prop_assert_eq!(&done, &reference.harvest(now));
                    prop_assert!(done.windows(2).all(|w| w[0] < w[1]), "ids ascend: {:?}", done);
                }
            }
            prop_assert_eq!(link.next_completion(now), reference.next_completion(now));
            prop_assert_eq!(link.active_flows(), reference.flows.len());
            prop_assert_eq!(
                link.bytes_in_flight().to_bits(),
                reference.flows.iter().map(|f| f.1).sum::<f64>().to_bits()
            );
        }
    }

    /// The calendar queue pops the exact (time, seq) sequence a binary
    /// heap would, under random interleavings of schedules and pops —
    /// including bursts of same-instant events (FIFO ties) and far-future
    /// outliers that force the direct-search fallback.
    #[test]
    fn engine_matches_reference_heap(
        ops in prop::collection::vec((0u64..4, 0u64..2000), 1..400),
    ) {
        let mut cal: Engine<u64> = Engine::new();
        let mut reference = ReferenceHeap::new();
        for (i, &(kind, delta)) in ops.iter().enumerate() {
            match kind {
                // Schedule `delta` ns ahead (delta = 0 exercises ties).
                0 | 1 => {
                    let t = SimTime::from_nanos(cal.now().as_nanos() + delta);
                    cal.schedule_at(t, i as u64);
                    reference.schedule_at(t, i as u64);
                }
                // Far-future outlier: beyond the initial calendar year.
                2 => {
                    let t = SimTime::from_nanos(cal.now().as_nanos() + delta * 1_000_003);
                    cal.schedule_at(t, i as u64);
                    reference.schedule_at(t, i as u64);
                }
                // Pop and compare.
                _ => {
                    let got = cal.pop().map(|s| (s.time, s.seq, s.payload));
                    prop_assert_eq!(got, reference.pop());
                    prop_assert_eq!(cal.now(), reference.now);
                }
            }
            prop_assert_eq!(cal.pending(), reference.heap.len());
        }
        // Drain both to the end; total order must coincide.
        loop {
            let got = cal.pop().map(|s| (s.time, s.seq, s.payload));
            let want = reference.pop();
            prop_assert_eq!(&got, &want);
            if got.is_none() {
                break;
            }
        }
    }

    /// `pop_if_due` agrees with peek-then-pop on the reference model.
    #[test]
    fn pop_if_due_matches_reference(
        ops in prop::collection::vec((0u64..3, 0u64..500), 1..300),
    ) {
        let mut cal: Engine<u64> = Engine::new();
        let mut reference = ReferenceHeap::new();
        for (i, &(kind, delta)) in ops.iter().enumerate() {
            if kind == 0 {
                let t = SimTime::from_nanos(cal.now().as_nanos() + delta);
                cal.schedule_at(t, i as u64);
                reference.schedule_at(t, i as u64);
            } else {
                let deadline = SimTime::from_nanos(cal.now().as_nanos() + delta);
                let want = match reference.peek_time() {
                    Some(t) if t <= deadline => reference.pop(),
                    _ => None,
                };
                let got = cal.pop_if_due(deadline).map(|s| (s.time, s.seq, s.payload));
                prop_assert_eq!(got, want);
                prop_assert_eq!(cal.now(), reference.now);
            }
        }
    }

    /// Engine sequence numbers keep same-instant events FIFO even when
    /// interleaved with earlier/later ones.
    #[test]
    fn engine_is_work_conserving(times in prop::collection::vec(0u64..100, 1..300)) {
        let mut e: Engine<u64> = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime::from_nanos(t), i as u64);
        }
        let mut per_time: std::collections::HashMap<u64, u64> = Default::default();
        let mut popped = 0;
        while let Some(ev) = e.pop() {
            let last = per_time.entry(ev.time.as_nanos()).or_insert(0);
            // Within one instant, payload (insertion index) ascends.
            prop_assert!(ev.payload >= *last);
            *last = ev.payload;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert_eq!(e.pending(), 0);
    }
}
