//! Heteroscedastic cluster interference, deterministically seeded.
//!
//! The baseline [`crate::noise::NoiseModel`] draws i.i.d. per-run
//! multipliers — every configuration sees the same noise distribution. Real
//! shared clusters are worse: noisy neighbors camp on *specific OSTs* for
//! minutes at a time, and the fabric's load moves on its own schedule. A
//! configuration that stripes over 64 OSTs has 64 chances to hit a busy
//! target; a stripe-1 config has one. That makes the objective's variance
//! *config-dependent* (heteroscedastic), which is exactly what a fixed
//! repeat count of three cannot handle.
//!
//! This module reproduces that structure while staying bit-reproducible:
//! every quantity is a pure function of `(seed, virtual time, config
//! fingerprint)`.
//!
//! * The virtual timeline is quantized into slots of [`SLOT_S`] seconds.
//! * Per OST, busy *episodes* follow a discretized Markov on/off process:
//!   each slot may start an episode (probability `p_start`, hashed from
//!   `(seed, ost, slot)`), and an episode started at slot `k` holds the OST
//!   busy for a dwell of `1..=max_dwell_slots` slots (hashed from the same
//!   tuple). Overlapping episodes merge. A busy OST serves at
//!   `1/slowdown` speed, with the slowdown drawn per episode.
//! * Network contention is a per-slot multiplier on the client injection
//!   path, shared by every config (it is not OST-pinned).
//! * A run's exposure window is its *virtual* `[start, start + io_time)`
//!   interval; the start offset is hashed from `(fingerprint, run_idx)` so
//!   repeats of the same config land on different parts of the timeline.
//!
//! Striped transfers complete when the slowest stripe completes, so the
//! storage-path slowdown for a window is the slot-averaged **max** over the
//! engaged OSTs — wider stripes are exposed to more targets, raising both
//! the mean and the variance of the penalty.

use crate::noise::splitmix64;

/// Virtual-timeline quantum, in simulated seconds.
pub const SLOT_S: f64 = 4.0;

/// Hash stream of the episode-start draw.
const START_STREAM: u64 = 0x8CB9_2BA7_2F3D_8DD7;

/// Multiplier that spreads OST ids across a draw's hash input.
const OST_MUL: u64 = 0xD6E8_FEB8_6659_FD93;

/// Named interference intensity presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseProfile {
    /// No interference episodes at all — baseline volatility only.
    Quiet,
    /// A normally loaded shared machine: occasional short episodes.
    Busy,
    /// A pathologically contended machine: frequent, long, severe episodes.
    Storm,
}

impl NoiseProfile {
    /// Parse a CLI-style profile name.
    pub fn parse(s: &str) -> Option<NoiseProfile> {
        match s {
            "quiet" => Some(NoiseProfile::Quiet),
            "busy" => Some(NoiseProfile::Busy),
            "storm" => Some(NoiseProfile::Storm),
            _ => None,
        }
    }

    /// The profile's canonical name (round-trips through [`Self::parse`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            NoiseProfile::Quiet => "quiet",
            NoiseProfile::Busy => "busy",
            NoiseProfile::Storm => "storm",
        }
    }
}

/// Seeded, deterministic interference generator for one campaign.
#[derive(Debug, Clone, Copy)]
pub struct InterferenceModel {
    /// Seed mixed into every draw.
    pub seed: u64,
    /// Intensity preset the knobs below were derived from.
    pub profile: NoiseProfile,
    /// Per-slot probability that a new busy episode starts on an OST.
    pub p_start: f64,
    /// Maximum episode dwell, in slots (dwell is uniform on `1..=max`).
    pub max_dwell_slots: u32,
    /// Service slowdown of a busy OST is uniform on `[min, max]`.
    pub slowdown_min: f64,
    /// Upper bound of the per-episode slowdown draw.
    pub slowdown_max: f64,
    /// Peak network-contention multiplier is `1 + net_amplitude`.
    pub net_amplitude: f64,
    /// Span of the virtual timeline run start offsets are drawn from.
    pub horizon_slots: u32,
}

impl InterferenceModel {
    /// Build the model for a named profile.
    pub fn new(profile: NoiseProfile, seed: u64) -> Self {
        // Episodes are rare per OST but severe: a stripe-1 config mostly
        // sails through, while a 64-OST stripe almost always has at least
        // one hot target — which is exactly the diminishing-returns
        // penalty wide striping pays on a shared machine.
        let (p_start, max_dwell_slots, slowdown_min, slowdown_max, net_amplitude) = match profile {
            NoiseProfile::Quiet => (0.0, 1, 1.0, 1.0, 0.0),
            NoiseProfile::Busy => (0.004, 6, 1.4, 2.5, 0.2),
            NoiseProfile::Storm => (0.012, 10, 2.0, 5.0, 0.6),
        };
        InterferenceModel {
            seed,
            profile,
            p_start,
            max_dwell_slots,
            slowdown_min,
            slowdown_max,
            net_amplitude,
            horizon_slots: 4096,
        }
    }

    /// True when the model can never perturb a run.
    pub fn is_inert(&self) -> bool {
        self.p_start == 0.0 && self.net_amplitude == 0.0
    }

    /// Virtual start time for `(config fingerprint, run index)`: repeats of
    /// one config sample different stretches of the shared timeline.
    pub fn start_time(&self, config_fingerprint: u64, run_idx: u32) -> f64 {
        let h = splitmix64(
            self.seed
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(config_fingerprint)
                .wrapping_add((run_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        (h % self.horizon_slots as u64) as f64 * SLOT_S
    }

    fn unit(&self, stream: u64, a: u64, b: u64) -> f64 {
        let h = splitmix64(
            self.seed
                .wrapping_mul(stream)
                .wrapping_add(a.wrapping_mul(OST_MUL))
                .wrapping_add(b),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Per-OST row of the episode-start hash: the draw behind
    /// `unit(START_STREAM, ost, slot)` is `splitmix64(start_row(ost) +
    /// slot)`, so a sweep over start slots hoists everything but the slot
    /// out of its loop.
    fn start_row(&self, ost: u32) -> u64 {
        self.seed
            .wrapping_mul(START_STREAM)
            .wrapping_add((ost as u64).wrapping_mul(OST_MUL))
    }

    /// Integer form of the episode-start test `unit(..) < p_start`: an
    /// episode starts at `slot` iff `splitmix64(start_row + slot) >> 11` is
    /// below this threshold. Exact for every `p_start` but NaN, since
    /// `(h >> 11) as f64` and the scalings by 2^53 are exact and the left
    /// side is an integer (`as u64` saturates `p_start < 0` to 0 and
    /// `p_start >= 1` past every 53-bit draw).
    fn start_threshold(&self) -> u64 {
        (self.p_start * (1u64 << 53) as f64).ceil() as u64
    }

    /// Dwell (slots) and slowdown of the episode that starts on `ost` at
    /// `slot`; the caller has already seen the start test pass. Pure
    /// function of `(seed, ost, slot)`.
    fn episode(&self, ost: u32, slot: u64) -> (u32, f64) {
        let dwell_draw = self.unit(0xAEF1_7502_C3A8_8C59, ost as u64, slot);
        let dwell = 1 + (dwell_draw * self.max_dwell_slots as f64) as u32;
        let sev_draw = self.unit(0x3C79_AC49_2BA7_B653, ost as u64, slot);
        let slowdown = self.slowdown_min + sev_draw * (self.slowdown_max - self.slowdown_min);
        (dwell.min(self.max_dwell_slots), slowdown)
    }

    /// Storage-path slowdown over the window `[t0, t0 + dur)` for a
    /// transfer striped over OSTs `first_ost..first_ost + n_osts`: the
    /// slot-averaged max across the engaged OSTs (the slowest stripe gates
    /// the transfer). Returns 1.0 for an empty window.
    ///
    /// Per engaged OST the window's candidate episode starts,
    /// `[lo - max_dwell_slots + 1, end)` clamped at slot 0, are each hashed
    /// once; an episode found raises the running maximum of every window
    /// slot it covers, and the per-slot maxima are summed in slot order.
    /// A window of `S` slots thus costs `S + max_dwell_slots - 1` start
    /// hashes per OST.
    ///
    /// OST ids are `first_ost.wrapping_add(i)`, not reduced modulo the
    /// file system's OST count, so a stripe that runs past the last OST
    /// draws episodes for OSTs that do not exist instead of wrapping onto
    /// real ones. Every committed storm result depends on that, so it is
    /// kept as is.
    pub fn storage_slowdown(&self, t0: f64, dur: f64, first_ost: u32, n_osts: u32) -> f64 {
        if self.p_start == 0.0 || dur <= 0.0 || n_osts == 0 {
            return 1.0;
        }
        let lo = (t0 / SLOT_S).floor() as i64;
        let hi = ((t0 + dur) / SLOT_S).ceil() as i64;
        let end = hi.max(lo + 1);
        let len = (end - lo) as usize;
        // Per-slot maxima, on the stack for every window the campaigns
        // produce (a few slots); longer windows fall back to the heap.
        let mut stack = [1.0f64; 64];
        let mut heap = Vec::new();
        let worst: &mut [f64] = if len <= stack.len() {
            &mut stack[..len]
        } else {
            heap.resize(len, 1.0);
            &mut heap
        };
        let threshold = self.start_threshold();
        let first_start = lo.saturating_sub(self.max_dwell_slots as i64 - 1).max(0);
        for i in 0..n_osts {
            let ost = first_ost.wrapping_add(i);
            let row = self.start_row(ost);
            for start in first_start..end {
                if splitmix64(row.wrapping_add(start as u64)) >> 11 >= threshold {
                    continue;
                }
                let (dwell, slowdown) = self.episode(ost, start as u64);
                let from = start.max(lo);
                let to = (start + dwell as i64).min(end);
                if to > from {
                    for w in &mut worst[(from - lo) as usize..(to - lo) as usize] {
                        *w = w.max(slowdown);
                    }
                }
            }
        }
        worst.iter().sum::<f64>() / len as f64
    }

    /// Network-contention multiplier over the window `[t0, t0 + dur)`:
    /// slot-averaged, shared by every configuration.
    pub fn network_contention(&self, t0: f64, dur: f64) -> f64 {
        if self.net_amplitude == 0.0 || dur <= 0.0 {
            return 1.0;
        }
        let lo = (t0 / SLOT_S).floor() as i64;
        let hi = ((t0 + dur) / SLOT_S).ceil() as i64;
        let mut acc = 0.0;
        let mut slots = 0u32;
        for slot in lo..hi.max(lo + 1) {
            // Squaring the uniform draw keeps the fabric mostly calm with
            // occasional sharp spikes, rather than uniformly elevated.
            let u = self.unit(0x94D0_49BB_1331_11EB, 0, slot.max(0) as u64);
            acc += 1.0 + self.net_amplitude * u * u;
            slots += 1;
        }
        acc / slots as f64
    }

    /// First OST of the stripe layout for a config fingerprint: layouts are
    /// pinned per config so repeats of one config keep hitting the same
    /// targets while different configs land elsewhere.
    pub fn first_ost(&self, config_fingerprint: u64, total_osts: u32) -> u32 {
        if total_osts == 0 {
            return 0;
        }
        (splitmix64(config_fingerprint ^ self.seed.wrapping_mul(0xFF51_AFD7_ED55_8CCD))
            % total_osts as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_round_trip() {
        for p in [NoiseProfile::Quiet, NoiseProfile::Busy, NoiseProfile::Storm] {
            assert_eq!(NoiseProfile::parse(p.as_str()), Some(p));
        }
        assert_eq!(NoiseProfile::parse("hurricane"), None);
    }

    #[test]
    fn quiet_profile_is_inert() {
        let m = InterferenceModel::new(NoiseProfile::Quiet, 9);
        assert!(m.is_inert());
        assert_eq!(m.storage_slowdown(0.0, 100.0, 0, 64), 1.0);
        assert_eq!(m.network_contention(0.0, 100.0), 1.0);
    }

    #[test]
    fn deterministic_per_inputs() {
        let m = InterferenceModel::new(NoiseProfile::Storm, 5);
        assert_eq!(
            m.storage_slowdown(37.0, 12.0, 3, 16),
            m.storage_slowdown(37.0, 12.0, 3, 16)
        );
        assert_eq!(
            m.network_contention(80.0, 9.0),
            m.network_contention(80.0, 9.0)
        );
        assert_eq!(m.start_time(1234, 2), m.start_time(1234, 2));
        assert_ne!(m.start_time(1234, 2), m.start_time(1234, 3));
    }

    #[test]
    fn seeds_decorrelate_timelines() {
        let a = InterferenceModel::new(NoiseProfile::Storm, 1);
        let b = InterferenceModel::new(NoiseProfile::Storm, 2);
        let differs = (0..64).any(|k| {
            a.storage_slowdown(k as f64 * SLOT_S, SLOT_S, 0, 8)
                != b.storage_slowdown(k as f64 * SLOT_S, SLOT_S, 0, 8)
        });
        assert!(differs, "different seeds must produce different timelines");
    }

    #[test]
    fn episodes_persist_across_adjacent_slots() {
        // Markov dwell: a busy slot's episode should frequently still be
        // running in the next slot (dwell > 1 slot most of the time).
        let m = InterferenceModel::new(NoiseProfile::Storm, 11);
        let mut busy = 0u32;
        let mut carried = 0u32;
        // A one-slot, one-OST window is exactly that OST's slot slowdown.
        let at = |slot: i64| m.storage_slowdown(slot as f64 * SLOT_S, SLOT_S, 0, 1);
        for slot in 0..4000i64 {
            if at(slot) > 1.0 {
                busy += 1;
                if at(slot + 1) > 1.0 {
                    carried += 1;
                }
            }
        }
        assert!(busy > 100, "storm profile should keep OST 0 busy often");
        assert!(
            carried as f64 / busy as f64 > 0.6,
            "episodes should dwell: {carried}/{busy}"
        );
    }

    #[test]
    fn wider_stripes_see_more_exposure() {
        // Heteroscedasticity: averaging over many windows, a 64-OST layout
        // must suffer a larger mean slowdown than a 1-OST layout, and its
        // window-to-window variance must be driven by the busy/idle mix.
        let m = InterferenceModel::new(NoiseProfile::Storm, 3);
        let windows = 400;
        let mean = |n: u32| -> f64 {
            (0..windows)
                .map(|k| m.storage_slowdown(k as f64 * 16.0 * SLOT_S, 2.0 * SLOT_S, 0, n))
                .sum::<f64>()
                / windows as f64
        };
        let narrow = mean(1);
        let wide = mean(64);
        assert!(
            wide > narrow * 1.15,
            "64-OST exposure {wide:.3} should exceed 1-OST {narrow:.3}"
        );
    }

    #[test]
    fn network_contention_bounded_and_varying() {
        let m = InterferenceModel::new(NoiseProfile::Busy, 17);
        let draws: Vec<f64> = (0..200)
            .map(|k| m.network_contention(k as f64 * 8.0 * SLOT_S, SLOT_S))
            .collect();
        assert!(draws
            .iter()
            .all(|&d| (1.0..=1.0 + m.net_amplitude).contains(&d)));
        let spread = draws.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - draws.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.01, "contention must move over the timeline");
    }
}
