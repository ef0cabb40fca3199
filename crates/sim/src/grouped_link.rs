//! Two-level bandwidth sharing with max-min fairness.
//!
//! [`GroupedLink`] models a shared backend reached through per-group
//! front-end links — concretely, the GPFS file system (global capacity)
//! behind each node's NIC (group capacity). Flow rates follow max-min
//! water-filling: every flow gets an equal share of the backend unless its
//! group's front-end caps it lower, in which case the slack is
//! redistributed to unconstrained flows.
//!
//! Same passive protocol as [`FairShareLink`](crate::FairShareLink):
//! `start` → schedule a generation-stamped tick at `next_completion` →
//! `harvest` on a still-valid tick.

use crate::link::FlowId;
use crate::time::{SimDuration, SimTime};

const EPS_BYTES: f64 = 1.0;

#[derive(Debug, Clone)]
struct GFlow {
    group: usize,
    remaining: f64,
}

/// A globally shared channel partitioned through per-group front-ends.
#[derive(Debug, Clone)]
pub struct GroupedLink {
    global_bps: f64,
    group_cap_bps: f64,
    groups: usize,
    /// Active flows as `(id, flow)`, ascending by id (ids are monotonic,
    /// so pushes keep the order). A contiguous array keeps the max-min
    /// sweeps cache-resident; the float sequence is unchanged.
    flows: Vec<(FlowId, GFlow)>,
    /// Active flows per group, kept current by `start` and `harvest`.
    counts: Vec<usize>,
    /// Per-flow max-min rate of each group for the current membership.
    /// Rates are a pure function of `counts`, so they are recomputed
    /// once per membership change and read by every sweep in between.
    rates: Vec<f64>,
    /// Water-filling order scratch, reused across recomputations.
    order: Vec<usize>,
    last_update: SimTime,
    generation: u64,
    next_flow_id: FlowId,
    completed_flows: u64,
    max_concurrency: usize,
}

impl GroupedLink {
    /// Creates a link with `groups` front-ends of `group_cap_bps` each,
    /// feeding a backend of `global_bps`.
    ///
    /// # Panics
    /// Panics unless rates are positive and `groups > 0`.
    pub fn new(global_bps: f64, groups: usize, group_cap_bps: f64) -> Self {
        assert!(
            global_bps > 0.0 && group_cap_bps > 0.0,
            "rates must be positive"
        );
        assert!(groups > 0, "need at least one group");
        GroupedLink {
            global_bps,
            group_cap_bps,
            groups,
            flows: Vec::new(),
            counts: vec![0; groups],
            rates: vec![0.0; groups],
            order: Vec::with_capacity(groups),
            last_update: SimTime::ZERO,
            generation: 0,
            next_flow_id: 0,
            completed_flows: 0,
            max_concurrency: 0,
        }
    }

    /// Max-min water-filling over the current `counts`, into `rates`.
    fn recompute_rates(&mut self) {
        let (cap, counts) = (self.group_cap_bps, &self.counts);
        self.rates.fill(0.0);
        // Groups sorted by their per-flow front-end cap, ascending. With a
        // uniform group cap the per-flow cap is cap / count, so busiest
        // groups are most constrained. For cluster-sized group counts the
        // stable sort works in a stack buffer and does not allocate.
        self.order.clear();
        self.order
            .extend((0..self.groups).filter(|&g| counts[g] > 0));
        self.order.sort_by(|&a, &b| {
            let ca = cap / counts[a] as f64;
            let cb = cap / counts[b] as f64;
            ca.partial_cmp(&cb).expect("finite caps")
        });
        let mut remaining = self.global_bps;
        let mut flows_left = self.flows.len();
        for &g in &self.order {
            let fair = remaining / flows_left as f64;
            let r = (cap / counts[g] as f64).min(fair);
            self.rates[g] = r;
            remaining -= r * counts[g] as f64;
            flows_left -= counts[g];
        }
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last_update).as_secs_f64();
        if dt > 0.0 && !self.flows.is_empty() {
            let rates = &self.rates;
            for (_, flow) in &mut self.flows {
                flow.remaining = (flow.remaining - rates[flow.group] * dt).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// Begins transferring `bytes` through the front-end of `group`.
    ///
    /// # Panics
    /// Panics on an out-of-range group.
    pub fn start(&mut self, now: SimTime, group: usize, bytes: f64) -> FlowId {
        assert!(group < self.groups, "group {group} out of range");
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "flow size must be finite"
        );
        self.advance(now);
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        self.flows.push((
            id,
            GFlow {
                group,
                remaining: bytes,
            },
        ));
        self.counts[group] += 1;
        self.recompute_rates();
        self.max_concurrency = self.max_concurrency.max(self.flows.len());
        self.generation += 1;
        id
    }

    /// Earliest upcoming flow completion assuming no membership change.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        if self.flows.is_empty() {
            return None;
        }
        let rates = &self.rates;
        let min_secs = self
            .flows
            .iter()
            .map(|(_, f)| {
                if f.remaining <= EPS_BYTES {
                    0.0
                } else {
                    f.remaining / rates[f.group]
                }
            })
            .fold(f64::INFINITY, f64::min);
        if min_secs <= 0.0 {
            return Some(now);
        }
        let ns = (min_secs * 1e9).ceil().max(1.0) as u64;
        Some(now + SimDuration::from_nanos(ns))
    }

    /// Advances to `now`, removes finished flows, and fills `done` with
    /// their ids (ascending), replacing its contents. Bumps the
    /// generation when any flow completed.
    pub fn harvest(&mut self, now: SimTime, done: &mut Vec<FlowId>) {
        self.advance(now);
        done.clear();
        let counts = &mut self.counts;
        self.flows.retain(|(id, f)| {
            let finished = f.remaining <= EPS_BYTES;
            if finished {
                done.push(*id);
                counts[f.group] -= 1;
            }
            !finished
        });
        if !done.is_empty() {
            self.recompute_rates();
            self.completed_flows += done.len() as u64;
            self.generation += 1;
        }
    }

    /// Generation stamp; changes on every membership change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Highest simultaneous flow count observed.
    pub fn max_concurrency(&self) -> usize {
        self.max_concurrency
    }

    /// Flows completed so far.
    pub fn completed_flows(&self) -> u64 {
        self.completed_flows
    }

    /// Current aggregate throughput across all flows, bytes/s.
    pub fn aggregate_rate(&self) -> f64 {
        self.flows.iter().map(|(_, f)| self.rates[f.group]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    #[test]
    fn lone_flow_limited_by_group_cap() {
        // Backend 8 GB/s, NIC 1 GB/s: a single flow gets the NIC rate.
        let mut link = GroupedLink::new(8e9, 4, 1e9);
        link.start(t(0.0), 0, 1e9);
        let done = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn many_flows_limited_by_backend() {
        // 16 flows spread over 8 groups, backend 800 B/s, group cap
        // 200 B/s. Fair share = 50 B/s each (backend binds first).
        let mut link = GroupedLink::new(800.0, 8, 200.0);
        for g in 0..8 {
            link.start(t(0.0), g, 100.0);
            link.start(t(0.0), g, 100.0);
        }
        let done = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
        let mut finished = Vec::new();
        link.harvest(done, &mut finished);
        assert_eq!(finished.len(), 16);
    }

    #[test]
    fn constrained_group_slack_goes_to_others() {
        // Backend 1000 B/s; group caps 200 B/s. Group 0 has 4 flows
        // (capped at 50 B/s each = 200 total), group 1 has 1 flow: it
        // gets min(cap=200, remaining 800) = 200 B/s.
        let mut link = GroupedLink::new(1000.0, 2, 200.0);
        for _ in 0..4 {
            link.start(t(0.0), 0, 10000.0);
        }
        link.start(t(0.0), 1, 200.0);
        let done = link.next_completion(t(0.0)).unwrap();
        assert!(
            (done.as_secs_f64() - 1.0).abs() < 1e-6,
            "{}",
            done.as_secs_f64()
        );
        let mut finished = Vec::new();
        link.harvest(done, &mut finished);
        assert_eq!(finished, vec![4]);
        // Only group-0 flows remain, pinned at their front-end cap.
        assert!((link.aggregate_rate() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_never_exceeds_backend() {
        let mut link = GroupedLink::new(800.0, 4, 300.0);
        for g in 0..4 {
            for _ in 0..3 {
                link.start(t(0.0), g, 1000.0);
            }
        }
        assert!(link.aggregate_rate() <= 800.0 + 1e-9);
    }

    #[test]
    fn group_rate_never_exceeds_front_end() {
        let mut link = GroupedLink::new(10000.0, 2, 300.0);
        link.start(t(0.0), 0, 1000.0);
        link.start(t(0.0), 0, 1000.0);
        // 2 flows in group 0: cap 150 each even though backend has room.
        let done = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 1000.0 / 150.0).abs() < 1e-6);
    }

    #[test]
    fn membership_change_rescales_rates() {
        let mut link = GroupedLink::new(400.0, 2, 400.0);
        link.start(t(0.0), 0, 400.0); // alone: 400 B/s
        link.start(t(0.5), 1, 10000.0); // now 200 B/s each
                                        // Flow 0 has 2 B left at t=0.5, at 2 B/s -> finishes at 1.5 s.
        let done = link.next_completion(t(0.5)).unwrap();
        assert!((done.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_group() {
        let mut link = GroupedLink::new(1.0, 2, 1.0);
        link.start(t(0.0), 5, 1.0);
    }
}
