//! Property tests: the one-sweep `InterferenceModel::storage_slowdown`
//! matches the look-back algorithm it replaced, bit for bit.

use proptest::prelude::*;
use tunio_iosim::interference::SLOT_S;
use tunio_iosim::{InterferenceModel, NoiseProfile};

/// `storage_slowdown` as it stood before the sweep: for every slot of the
/// window and every engaged OST, look back at most `max_dwell_slots` start
/// slots for an episode still covering the slot. Built only from the
/// model's public fields, so the library's version can be checked against
/// it bit for bit.
mod reference {
    use tunio_iosim::interference::SLOT_S;
    use tunio_iosim::noise::splitmix64;
    use tunio_iosim::InterferenceModel;

    fn unit(m: &InterferenceModel, stream: u64, a: u64, b: u64) -> f64 {
        let h = splitmix64(
            m.seed
                .wrapping_mul(stream)
                .wrapping_add(a.wrapping_mul(0xD6E8_FEB8_6659_FD93))
                .wrapping_add(b),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn episode_at(m: &InterferenceModel, ost: u32, slot: i64) -> Option<(u32, f64)> {
        if slot < 0 || m.p_start == 0.0 {
            return None;
        }
        if unit(m, 0x8CB9_2BA7_2F3D_8DD7, ost as u64, slot as u64) >= m.p_start {
            return None;
        }
        let dwell_draw = unit(m, 0xAEF1_7502_C3A8_8C59, ost as u64, slot as u64);
        let dwell = 1 + (dwell_draw * m.max_dwell_slots as f64) as u32;
        let sev_draw = unit(m, 0x3C79_AC49_2BA7_B653, ost as u64, slot as u64);
        let slowdown = m.slowdown_min + sev_draw * (m.slowdown_max - m.slowdown_min);
        Some((dwell.min(m.max_dwell_slots), slowdown))
    }

    fn ost_slowdown_at(m: &InterferenceModel, ost: u32, slot: i64) -> f64 {
        let mut worst = 1.0f64;
        for back in 0..m.max_dwell_slots as i64 {
            if let Some((dwell, slowdown)) = episode_at(m, ost, slot - back) {
                if dwell as i64 > back {
                    worst = worst.max(slowdown);
                }
            }
        }
        worst
    }

    pub fn storage_slowdown(
        m: &InterferenceModel,
        t0: f64,
        dur: f64,
        first_ost: u32,
        n_osts: u32,
    ) -> f64 {
        if m.p_start == 0.0 || dur <= 0.0 || n_osts == 0 {
            return 1.0;
        }
        let lo = (t0 / SLOT_S).floor() as i64;
        let hi = ((t0 + dur) / SLOT_S).ceil() as i64;
        let mut acc = 0.0;
        let mut slots = 0u32;
        for slot in lo..hi.max(lo + 1) {
            let mut worst = 1.0f64;
            for i in 0..n_osts {
                worst = worst.max(ost_slowdown_at(m, first_ost.wrapping_add(i), slot));
            }
            acc += worst;
            slots += 1;
        }
        acc / slots as f64
    }
}

/// The model for `profile` and `seed`, with `p_start` overridden when
/// `p_mode` names one of the hand-set values (0, 1 or 1.5).
fn model(profile: NoiseProfile, seed: u64, p_mode: u8) -> InterferenceModel {
    let mut m = InterferenceModel::new(profile, seed);
    match p_mode {
        0 => m.p_start = 0.0,
        1 => m.p_start = 1.0,
        2 => m.p_start = 1.5,
        _ => {}
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Busy and storm windows of 0 to ~300 slots, starting anywhere from
    /// slot 0 (the look-back clamp) into the timeline, over 1 to 250 OSTs
    /// whose ids may wrap past `u32::MAX`.
    #[test]
    fn sweep_matches_the_look_back_reference(
        profile in prop_oneof![Just(NoiseProfile::Busy), Just(NoiseProfile::Storm)],
        seed in any::<u64>(),
        p_mode in 0u8..8,
        t0 in prop_oneof![Just(0.0), 0.0f64..48.0, 0.0f64..16384.0],
        dur in prop_oneof![Just(0.0), 0.0f64..16.0, 0.0f64..300.0, 200.0f64..1200.0],
        first_ost in prop_oneof![0u32..512, (u32::MAX - 300)..=u32::MAX],
        n_osts in 1u32..=250,
    ) {
        let m = model(profile, seed, p_mode);
        let got = m.storage_slowdown(t0, dur, first_ost, n_osts);
        let want = reference::storage_slowdown(&m, t0, dur, first_ost, n_osts);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "t0 {} dur {} first_ost {} n_osts {} p_start {}: {} vs {}",
            t0, dur, first_ost, n_osts, m.p_start, got, want
        );
    }
}

/// Windows on either side of the 64-slot stack buffer, from slot 0 and
/// from mid-timeline, with wrapping OST ids and every hand-set `p_start`.
#[test]
fn buffer_edges_match_the_reference() {
    let mut busy_windows = 0;
    for profile in [NoiseProfile::Busy, NoiseProfile::Storm] {
        for p_mode in 0..4 {
            let m = model(profile, 7, p_mode);
            for slots in [1u32, 63, 64, 65, 300] {
                for t0 in [0.0, 2.0, 1000.0 * SLOT_S] {
                    for first_ost in [0, u32::MAX - 2] {
                        let dur = slots as f64 * SLOT_S;
                        let got = m.storage_slowdown(t0, dur, first_ost, 5);
                        let want = reference::storage_slowdown(&m, t0, dur, first_ost, 5);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{profile:?} p_start {} slots {slots} t0 {t0} first_ost {first_ost}",
                            m.p_start
                        );
                        busy_windows += (got > 1.0) as u32;
                    }
                }
            }
        }
    }
    assert!(
        busy_windows > 50,
        "too few windows hit an episode: {busy_windows}"
    );
}
