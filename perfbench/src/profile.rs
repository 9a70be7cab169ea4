//! Per-handler profile of the simulator, taken from outside it.
//!
//! [`ProfileObserver`] is an ordinary write-only [`SimObserver`]: the
//! engine calls `on_event` right before dispatching each event, so the
//! wall time between two successive hooks is the handler of the earlier
//! event (plus the queue pop and observer fan-out that follow it). The
//! gap is charged to that event's [`Event`] variant; the last event's
//! gap closes at `on_run_end`. Counts are exact and repeat run to run;
//! times are wall clock. No clock or counter enters the simulator.

use nomc_sim::events::Event;
use nomc_sim::{SimObserver, SimResult};
use nomc_units::SimTime;
use std::time::{Duration, Instant};

/// Every [`Event`] variant, in declaration order; [`variant_index`]
/// maps an event to its position here.
pub const VARIANTS: [&str; 14] = [
    "PacketReady",
    "BackoffExpired",
    "CcaDone",
    "TxStart",
    "TxEnd",
    "SyncDone",
    "PowerSense",
    "ProviderTick",
    "AckStart",
    "AckTimeout",
    "NodeDown",
    "NodeUp",
    "CcaStuckStart",
    "CcaStuckEnd",
];

/// Position of `event`'s variant in [`VARIANTS`]. Exhaustive, so a new
/// variant fails to compile here until the profile names it.
pub fn variant_index(event: &Event) -> usize {
    match event {
        Event::PacketReady(_) => 0,
        Event::BackoffExpired(_) => 1,
        Event::CcaDone(_) => 2,
        Event::TxStart(_) => 3,
        Event::TxEnd(..) => 4,
        Event::SyncDone(..) => 5,
        Event::PowerSense(_) => 6,
        Event::ProviderTick(_) => 7,
        Event::AckStart(..) => 8,
        Event::AckTimeout(..) => 9,
        Event::NodeDown(_) => 10,
        Event::NodeUp(_) => 11,
        Event::CcaStuckStart(_) => 12,
        Event::CcaStuckEnd(_) => 13,
    }
}

/// Event counts and self time per [`Event`] variant, accumulated over
/// every run it observes.
#[derive(Debug, Clone, Default)]
pub struct ProfileObserver {
    counts: [u64; VARIANTS.len()],
    self_time: [Duration; VARIANTS.len()],
    open: Option<(usize, Instant)>,
}

impl ProfileObserver {
    /// Events seen per variant, in [`VARIANTS`] order.
    pub fn counts(&self) -> &[u64; VARIANTS.len()] {
        &self.counts
    }

    /// Wall time charged per variant, in [`VARIANTS`] order.
    pub fn self_time(&self) -> &[Duration; VARIANTS.len()] {
        &self.self_time
    }

    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn close(&mut self, now: Instant) {
        if let Some((variant, since)) = self.open.take() {
            self.self_time[variant] += now.duration_since(since);
        }
    }
}

impl SimObserver for ProfileObserver {
    fn on_event(&mut self, _now: SimTime, event: &Event) {
        let now = Instant::now();
        self.close(now);
        let variant = variant_index(event);
        self.counts[variant] += 1;
        self.open = Some((variant, now));
    }

    fn on_run_end(&mut self, _result: &SimResult) {
        self.close(Instant::now());
    }
}
