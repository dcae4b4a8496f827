//! The report digest the pin suites share.

use socbuf_sim::SimReport;

/// FNV-1a (64-bit) over the little-endian bytes of each folded word.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Folds every counter of `r`, as `f64::to_bits`.
    pub fn report(&mut self, r: &SimReport) {
        self.f(r.measured_time);
        for q in &r.per_queue {
            for x in [
                q.offered,
                q.accepted,
                q.lost_full,
                q.lost_timeout,
                q.served,
                q.mean_wait,
                q.time_avg_len,
            ] {
                self.f(x);
            }
        }
        for p in &r.per_proc {
            for x in [p.offered, p.lost, p.delivered] {
                self.f(x);
            }
        }
        for x in [
            r.total_offered,
            r.total_delivered,
            r.total_lost,
            r.in_flight,
        ] {
            self.f(x);
        }
    }
}

/// A fixed effort table: `efforts[queue][occupancy]`, with zeros and ties
/// so both the threshold and the random tie-break paths run.
pub fn tie_heavy_effort(nq: usize) -> socbuf_sim::Arbiter {
    let efforts = (0..nq)
        .map(|q| (0..6).map(|k| ((q * 7 + k * 3) % 5) as f64).collect())
        .collect();
    socbuf_sim::Arbiter::WeightedEffort { efforts }
}
