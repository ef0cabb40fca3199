//! Fair-share bandwidth links (progressive filling).
//!
//! Models a shared channel — PCIe bus, a node's local disk, a NIC, the
//! aggregate GPFS backend — where `k` concurrent transfers each progress at
//! `min(per_flow_cap, capacity / k)`. This is the textbook processor-sharing
//! fluid model and is what produces every contention effect the paper
//! reports (disk saturation under fine-grained tasks, the shared-disk
//! bottleneck, PCIe contention between co-located GPU tasks).
//!
//! The link is passive. The executor:
//! 1. calls [`FairShareLink::start`] when a transfer begins,
//! 2. schedules a tick event at [`FairShareLink::next_completion`] stamped
//!    with [`FairShareLink::generation`],
//! 3. on a tick whose stamp still matches, calls [`FairShareLink::harvest`]
//!    to collect finished flows and schedules the next tick.
//!
//! Any membership change bumps the generation, invalidating stale ticks.

use crate::time::{SimDuration, SimTime};

/// Identifier of an in-flight transfer on a link.
pub type FlowId = u64;

/// Bytes of slack below which a flow counts as finished (absorbs the
/// nanosecond rounding of tick times).
const EPS_BYTES: f64 = 1.0;

/// A bandwidth-shared channel with optional per-flow rate cap.
///
/// ```
/// use gpuflow_sim::{FairShareLink, SimTime};
///
/// let mut link = FairShareLink::new(100.0); // 100 B/s
/// link.start(SimTime::ZERO, 100.0);
/// link.start(SimTime::ZERO, 100.0);
/// // Two equal flows share the channel: both finish at t = 2 s.
/// let done = link.next_completion(SimTime::ZERO).unwrap();
/// let mut finished = Vec::new();
/// link.harvest(done, &mut finished);
/// assert_eq!(finished, [0, 1]);
/// assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct FairShareLink {
    capacity_bps: f64,
    per_flow_cap_bps: f64,
    /// Active flows as `(id, remaining_bytes)`, ascending by id. Flow ids
    /// are handed out monotonically, so a push keeps the order sorted and
    /// the fluid-model sweep in [`FairShareLink::advance`] runs over a
    /// contiguous array instead of chasing `BTreeMap` nodes — same float
    /// operations in the same order, several times fewer cache misses.
    flows: Vec<(FlowId, f64)>,
    last_update: SimTime,
    generation: u64,
    next_flow_id: FlowId,
    total_bytes_started: f64,
    completed_flows: u64,
    max_concurrency: usize,
}

impl FairShareLink {
    /// Creates a link with aggregate `capacity_bps` (bytes/second) and no
    /// per-flow cap.
    pub fn new(capacity_bps: f64) -> Self {
        Self::with_per_flow_cap(capacity_bps, f64::INFINITY)
    }

    /// Creates a link whose individual flows are additionally capped at
    /// `per_flow_cap_bps` (e.g. a node NIC in front of a GPFS backend).
    ///
    /// # Panics
    /// Panics unless both rates are positive.
    pub fn with_per_flow_cap(capacity_bps: f64, per_flow_cap_bps: f64) -> Self {
        assert!(
            capacity_bps > 0.0 && per_flow_cap_bps > 0.0,
            "link rates must be positive"
        );
        FairShareLink {
            capacity_bps,
            per_flow_cap_bps,
            flows: Vec::new(),
            last_update: SimTime::ZERO,
            generation: 0,
            next_flow_id: 0,
            total_bytes_started: 0.0,
            completed_flows: 0,
            max_concurrency: 0,
        }
    }

    /// Current per-flow rate in bytes/second (0 when idle).
    pub fn rate_per_flow(&self) -> f64 {
        let k = self.flows.len();
        if k == 0 {
            0.0
        } else {
            (self.capacity_bps / k as f64).min(self.per_flow_cap_bps)
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

    /// Begins transferring `bytes` at `now`. Returns the new flow id.
    /// Bumps the generation: previously scheduled ticks are stale.
    pub fn start(&mut self, now: SimTime, bytes: f64) -> FlowId {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "flow size must be finite"
        );
        self.advance(now);
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        self.flows.push((id, bytes));
        self.max_concurrency = self.max_concurrency.max(self.flows.len());
        self.total_bytes_started += bytes;
        self.generation += 1;
        id
    }

    /// Instant at which the earliest active flow will finish, assuming no
    /// membership changes. `None` when the link is idle.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let rate = self.rate_per_flow();
        let min_remaining = self
            .flows
            .iter()
            .map(|&(_, remaining)| remaining)
            .fold(f64::INFINITY, f64::min);
        if min_remaining.is_infinite() {
            return None;
        }
        if min_remaining <= EPS_BYTES {
            return Some(now);
        }
        // Ceil to whole nanoseconds so the scheduled tick never lands
        // before the flow is actually drained.
        let secs = min_remaining / rate;
        let ns = (secs * 1e9).ceil().max(1.0) as u64;
        Some(now + SimDuration::from_nanos(ns))
    }

    /// Advances the fluid model to `now`, removes every finished flow,
    /// and fills `done` with their ids (ascending), replacing its
    /// contents. Bumps the generation when any flow completed.
    pub fn harvest(&mut self, now: SimTime, done: &mut Vec<FlowId>) {
        self.advance(now);
        done.clear();
        self.flows.retain(|&(id, remaining)| {
            let finished = remaining <= EPS_BYTES;
            if finished {
                done.push(id);
            }
            !finished
        });
        if !done.is_empty() {
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

    /// Highest number of simultaneously active flows observed.
    pub fn max_concurrency(&self) -> usize {
        self.max_concurrency
    }

    /// Total bytes ever submitted to the link.
    pub fn total_bytes_started(&self) -> f64 {
        self.total_bytes_started
    }

    /// Number of flows that ran to completion.
    pub fn completed_flows(&self) -> u64 {
        self.completed_flows
    }

    /// Bytes still in flight (conservation check: started = in flight +
    /// delivered, up to tick rounding).
    pub fn bytes_in_flight(&self) -> f64 {
        self.flows.iter().map(|&(_, remaining)| remaining).sum()
    }

    /// Aggregate capacity in bytes/second.
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    fn harvest(link: &mut FairShareLink, now: SimTime) -> Vec<FlowId> {
        let mut done = Vec::new();
        link.harvest(now, &mut done);
        done
    }

    #[test]
    fn single_flow_runs_at_capacity() {
        let mut link = FairShareLink::new(100.0); // 100 B/s
        link.start(t(0.0), 200.0);
        let done_at = link.next_completion(t(0.0)).unwrap();
        assert!((done_at.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(harvest(&mut link, done_at), vec![0]);
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_capacity_equally() {
        let mut link = FairShareLink::new(100.0);
        link.start(t(0.0), 100.0);
        link.start(t(0.0), 100.0);
        // Each gets 50 B/s -> both finish at t = 2 s.
        let done_at = link.next_completion(t(0.0)).unwrap();
        assert!((done_at.as_secs_f64() - 2.0).abs() < 1e-6);
        let done = harvest(&mut link, done_at);
        assert_eq!(done, vec![0, 1]);
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut link = FairShareLink::new(100.0);
        link.start(t(0.0), 100.0); // alone it would finish at 1 s
        link.start(t(0.5), 1000.0); // joins halfway
                                    // First flow: 50 B drained by 0.5 s, then 50 B at 50 B/s -> 1.5 s.
        let done_at = link.next_completion(t(0.5)).unwrap();
        assert!((done_at.as_secs_f64() - 1.5).abs() < 1e-6);
        assert_eq!(harvest(&mut link, done_at), vec![0]);
        // Second flow speeds back up to 100 B/s afterwards.
        let done2 = link.next_completion(done_at).unwrap();
        // It drained 50 B/s * 1.0 s = 50 B so far; 950 B left at 100 B/s.
        assert!((done2.as_secs_f64() - 11.0).abs() < 1e-5);
    }

    #[test]
    fn per_flow_cap_limits_lone_flow() {
        let mut link = FairShareLink::with_per_flow_cap(1000.0, 100.0);
        link.start(t(0.0), 100.0);
        let done_at = link.next_completion(t(0.0)).unwrap();
        assert!((done_at.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn generation_bumps_invalidate_ticks() {
        let mut link = FairShareLink::new(100.0);
        link.start(t(0.0), 100.0);
        let g1 = link.generation();
        link.start(t(0.1), 100.0);
        assert_ne!(link.generation(), g1, "start must bump generation");
        let before = link.generation();
        assert!(harvest(&mut link, t(0.2)).is_empty());
        assert_eq!(link.generation(), before, "no completion, no bump");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut link = FairShareLink::new(100.0);
        link.start(t(1.0), 0.0);
        assert_eq!(link.next_completion(t(1.0)), Some(t(1.0)));
        assert_eq!(harvest(&mut link, t(1.0)), vec![0]);
    }

    #[test]
    fn idle_link_has_no_completion() {
        let link = FairShareLink::new(10.0);
        assert_eq!(link.next_completion(t(0.0)), None);
    }

    #[test]
    fn byte_conservation_within_rounding() {
        let mut link = FairShareLink::new(1e9);
        link.start(t(0.0), 5e8);
        link.start(t(0.1), 3e8);
        let mut now = t(0.0);
        let mut delivered = 0u64;
        for _ in 0..10 {
            match link.next_completion(now) {
                Some(tc) => {
                    now = tc.max(now);
                    delivered += harvest(&mut link, now).len() as u64;
                }
                None => break,
            }
        }
        assert_eq!(delivered, 2);
        assert!(link.bytes_in_flight() < 64.0);
    }
}
