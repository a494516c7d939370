//! Link budget: combining transmit power, beam gains on both ends and the
//! channel paths into the RSS / SNR the protocol observes.
//!
//! This is the boundary the Silent Tracker protocol sees: everything above
//! it works purely on [`crate::units::Dbm`] RSS values, which is the
//! paper's central claim — the protocol needs *only* in-band RSS.

use crate::channel::PathSample;
use crate::codebook::{BeamId, Codebook};
use crate::geometry::Pose;
use crate::units::{Db, Dbm};

/// Static radio-front-end parameters of one node.
#[derive(Debug, Clone, Copy)]
pub struct RadioConfig {
    /// Transmit power at the antenna port.
    pub tx_power: Dbm,
    /// Receiver noise figure.
    pub noise_figure: Db,
    /// Receiver bandwidth in Hz.
    pub bandwidth_hz: f64,
    /// Minimum SNR at which a synchronization signal is detectable.
    pub detection_snr: Db,
    /// Extra SNR above `detection_snr` required to *decode* an SSB well
    /// enough to acquire a previously unknown beam (synchronize + read
    /// the broadcast payload, NR's PBCH). Energy detection alone happens
    /// at `detection_snr`; without this margin, a fading spike through a
    /// side lobe can masquerade as an acquirable neighbor beam.
    pub ssb_decode_margin: Db,
}

impl RadioConfig {
    /// Parameters close to the NI 60 GHz mmWave Transceiver System used by
    /// the paper (≈ 2 GHz of digitized bandwidth, modest tx power, the
    /// array gain lives in the codebook).
    pub fn ni_60ghz_testbed() -> RadioConfig {
        RadioConfig {
            tx_power: Dbm(10.0),
            noise_figure: Db(7.0),
            bandwidth_hz: 1.76e9,
            detection_snr: Db(0.0),
            ssb_decode_margin: Db(6.0),
        }
    }

    /// Thermal noise floor of this receiver.
    pub fn noise_floor(&self) -> Dbm {
        Dbm::noise_floor(self.bandwidth_hz, self.noise_figure)
    }

    /// Precompute the receiver's derived thresholds once; see [`RadioCal`].
    pub fn cal(&self) -> RadioCal {
        RadioCal::new(self)
    }
}

/// Precomputed receiver calibration: the noise floor and threshold sums
/// that [`snr`], [`detectable`], [`acquirable`] and
/// [`packet_success_probability`] re-derive (a `log10` per call) every
/// time. The executors evaluate millions of probes per run; computing
/// these once per run keeps the per-probe cost to a compare. Every method
/// performs bit-identically to its free-function counterpart.
#[derive(Debug, Clone, Copy)]
pub struct RadioCal {
    /// Thermal noise floor of the receiver.
    pub noise_floor: Dbm,
    /// SNR (dB) above which a sync signal is detectable.
    detect_snr_db: f64,
    /// SNR (dB) above which an unknown SSB is acquirable (decode margin).
    acquire_snr_db: f64,
    /// Centre of the packet-success logistic waterfall, dB of SNR.
    success_mid_db: f64,
}

impl RadioCal {
    pub fn new(radio: &RadioConfig) -> RadioCal {
        RadioCal {
            noise_floor: radio.noise_floor(),
            detect_snr_db: radio.detection_snr.0,
            acquire_snr_db: radio.detection_snr.0 + radio.ssb_decode_margin.0,
            success_mid_db: radio.detection_snr.0 + 3.0,
        }
    }

    pub fn snr(&self, rss: Dbm) -> Db {
        rss - self.noise_floor
    }

    pub fn detectable(&self, rss: Dbm) -> bool {
        self.snr(rss).0 >= self.detect_snr_db
    }

    pub fn acquirable(&self, rss: Dbm) -> bool {
        self.snr(rss).0 >= self.acquire_snr_db
    }

    pub fn packet_success_probability(&self, snr: Db) -> f64 {
        let margin = snr.0 - self.success_mid_db;
        1.0 / (1.0 + (-1.5 * margin).exp())
    }
}

/// Received signal strength at the output of the receive beamformer when
/// the transmitter uses `tx_beam` of `tx_codebook` (device at `tx_pose`)
/// and the receiver uses `rx_beam` of `rx_codebook` (device at `rx_pose`),
/// over the given channel `paths`.
///
/// Paths combine incoherently (power sum): at 2 GHz bandwidth the rays are
/// resolvable and a real receiver locks its measurement window onto total
/// received sync energy. Each ray contributes `g_tx · (power · g_rx)` in
/// linear terms, and the sum becomes dBm once, as `tx_power + 10·log10(Σ)`.
/// Returns `None` when there are no paths at all.
#[allow(clippy::too_many_arguments)]
pub fn rss(
    tx_power: Dbm,
    tx_pose: Pose,
    tx_codebook: &Codebook,
    tx_beam: BeamId,
    rx_pose: Pose,
    rx_codebook: &Codebook,
    rx_beam: BeamId,
    paths: &[PathSample],
) -> Option<Dbm> {
    if paths.is_empty() {
        return None;
    }
    let (tx, rx) = (tx_codebook.beam(tx_beam), rx_codebook.beam(rx_beam));
    let mut sum = 0.0;
    for p in paths {
        let tx_local = (p.aod - tx_pose.heading).wrapped();
        let rx_local = (p.aoa - rx_pose.heading).wrapped();
        sum += tx.linear_gain_towards(tx_local) * (p.power * rx.linear_gain_towards(rx_local));
    }
    Some(level(tx_power, sum))
}

/// Evaluate the RSS of *every* transmit beam of `tx_codebook` over the
/// same `paths` in one pass over the rays: per-ray local angles (and the
/// fixed receive-beam gain) are computed once per ray instead of once per
/// (ray, beam), and no intermediate collection is built. `out[b]` receives
/// the RSS of transmit beam `b` and must be exactly `tx_codebook.len()`
/// long. Returns `false` (leaving `out` untouched) when `paths` is empty.
///
/// Each `out[b]` is bit-identical to the corresponding [`rss`] call: the
/// per-ray products associate the same way and accumulate in the same ray
/// order.
#[allow(clippy::too_many_arguments)]
pub fn rss_sweep_tx(
    tx_power: Dbm,
    tx_pose: Pose,
    tx_codebook: &Codebook,
    rx_pose: Pose,
    rx_codebook: &Codebook,
    rx_beam: BeamId,
    paths: &[PathSample],
    out: &mut [Dbm],
) -> bool {
    assert_eq!(out.len(), tx_codebook.len(), "out must cover the codebook");
    if paths.is_empty() {
        return false;
    }
    // Accumulate linear power ratios in place, convert to dBm at the end.
    for o in out.iter_mut() {
        o.0 = 0.0;
    }
    let rx = rx_codebook.beam(rx_beam);
    for p in paths {
        let tx_local = (p.aod - tx_pose.heading).wrapped();
        let rx_local = (p.aoa - rx_pose.heading).wrapped();
        let received = p.power * rx.linear_gain_towards(rx_local);
        for (o, beam) in out.iter_mut().zip(tx_codebook.beams()) {
            o.0 += beam.linear_gain_towards(tx_local) * received;
        }
    }
    for o in out.iter_mut() {
        *o = level(tx_power, o.0);
    }
    true
}

/// The received level of `tx_power` scaled by the linear ratio `sum`.
fn level(tx_power: Dbm, sum: f64) -> Dbm {
    tx_power + Db::from_linear(sum)
}

/// Signal-to-noise ratio for an RSS at a given receiver.
pub fn snr(rss: Dbm, radio: &RadioConfig) -> Db {
    rss - radio.noise_floor()
}

/// Whether a synchronization signal at `rss` is detectable by `radio`.
pub fn detectable(rss: Dbm, radio: &RadioConfig) -> bool {
    snr(rss, radio).0 >= radio.detection_snr.0
}

/// Whether an SSB at `rss` is strong enough to *acquire* a previously
/// unknown beam: detection plus the decode margin. Tracking an already
/// acquired beam only needs [`detectable`] (RSRP measurement on known
/// resources), but acquisition requires decoding the broadcast payload.
pub fn acquirable(rss: Dbm, radio: &RadioConfig) -> bool {
    snr(rss, radio).0 >= radio.detection_snr.0 + radio.ssb_decode_margin.0
}

/// Map SNR to packet/PDU success probability.
///
/// A smooth logistic waterfall centred `margin_db` above the detection
/// threshold approximates a coded-block error curve; good links succeed
/// deterministically, links near the edge flap — which is exactly the
/// regime the paper's edge-of-cell state machine (edge G: "cell assistance
/// delayed or lost") is designed for.
pub fn packet_success_probability(snr: Db, radio: &RadioConfig) -> f64 {
    let margin = snr.0 - (radio.detection_snr.0 + 3.0);
    1.0 / (1.0 + (-1.5 * margin).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelConfig, Environment, LinkChannel};
    use crate::codebook::BeamwidthClass;
    use crate::geometry::{Radians, Vec2};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn los_paths(d: f64) -> Vec<PathSample> {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::deterministic());
        ch.paths(
            &mut rng,
            &Environment::open(),
            Vec2::ZERO,
            Vec2::new(d, 0.0),
        )
    }

    #[test]
    fn aligned_beams_give_link_budget() {
        let bs = Codebook::for_class(BeamwidthClass::Narrow);
        let ue = Codebook::for_class(BeamwidthClass::Narrow);
        let paths = los_paths(10.0);
        let tx_pose = Pose::new(Vec2::ZERO, Radians(0.0));
        let rx_pose = Pose::new(Vec2::new(10.0, 0.0), Radians(0.0));
        // Pick the ground-truth best beams on both ends.
        let tx_beam = bs.best_beam_towards(tx_pose.local_bearing_to(rx_pose.position));
        let rx_beam = ue.best_beam_towards(rx_pose.local_bearing_to(tx_pose.position));
        let r = rss(
            Dbm(10.0),
            tx_pose,
            &bs,
            tx_beam,
            rx_pose,
            &ue,
            rx_beam,
            &paths,
        )
        .unwrap();
        // 10 dBm + ~13.8 + ~13.8 − 88 ≈ −50.4 dBm at boresight; the 180°
        // bearing lands on the tile edge of both codebooks, so up to 6 dB
        // of beam-tiling loss is expected.
        assert!(r.0 > -57.0 && r.0 < -49.0, "{r}");
        // Comfortably detectable on the testbed radio.
        let radio = RadioConfig::ni_60ghz_testbed();
        assert!(detectable(r, &radio));
        assert!(snr(r, &radio).0 > 15.0);
    }

    #[test]
    fn misaligned_rx_beam_loses_gain() {
        let bs = Codebook::for_class(BeamwidthClass::Narrow);
        let ue = Codebook::for_class(BeamwidthClass::Narrow);
        let paths = los_paths(10.0);
        let tx_pose = Pose::new(Vec2::ZERO, Radians(0.0));
        let rx_pose = Pose::new(Vec2::new(10.0, 0.0), Radians(0.0));
        let tx_beam = bs.best_beam_towards(tx_pose.local_bearing_to(rx_pose.position));
        let best = ue.best_beam_towards(rx_pose.local_bearing_to(tx_pose.position));
        let aligned = rss(Dbm(10.0), tx_pose, &bs, tx_beam, rx_pose, &ue, best, &paths).unwrap();
        // A beam pointing away (90° off → several beams away).
        let away = BeamId((best.0 + 4) % 18);
        let worse = rss(Dbm(10.0), tx_pose, &bs, tx_beam, rx_pose, &ue, away, &paths).unwrap();
        assert!(aligned.0 - worse.0 > 10.0, "{aligned} vs {worse}");
    }

    #[test]
    fn omni_rx_loses_array_gain_relative_to_narrow() {
        let bs = Codebook::for_class(BeamwidthClass::Narrow);
        let narrow = Codebook::for_class(BeamwidthClass::Narrow);
        let omni = Codebook::for_class(BeamwidthClass::Omni);
        let paths = los_paths(10.0);
        let tx_pose = Pose::new(Vec2::ZERO, Radians(0.0));
        let rx_pose = Pose::new(Vec2::new(10.0, 0.0), Radians(0.0));
        let tx_beam = bs.best_beam_towards(tx_pose.local_bearing_to(rx_pose.position));
        let nb = narrow.best_beam_towards(rx_pose.local_bearing_to(tx_pose.position));
        let rn = rss(
            Dbm(10.0),
            tx_pose,
            &bs,
            tx_beam,
            rx_pose,
            &narrow,
            nb,
            &paths,
        )
        .unwrap();
        let ro = rss(
            Dbm(10.0),
            tx_pose,
            &bs,
            tx_beam,
            rx_pose,
            &omni,
            BeamId::OMNI,
            &paths,
        )
        .unwrap();
        // Narrow rx beam buys ≈ 13.8 − 2 ≈ 12 dB of SNR.
        assert!(rn.0 - ro.0 > 8.0, "{rn} vs {ro}");
    }

    #[test]
    fn rss_empty_paths_is_none() {
        let cb = Codebook::for_class(BeamwidthClass::Omni);
        let r = rss(
            Dbm(10.0),
            Pose::default(),
            &cb,
            BeamId::OMNI,
            Pose::default(),
            &cb,
            BeamId::OMNI,
            &[],
        );
        assert!(r.is_none());
    }

    #[test]
    fn packet_success_waterfall() {
        let radio = RadioConfig::ni_60ghz_testbed();
        let low = packet_success_probability(Db(-5.0), &radio);
        let mid = packet_success_probability(Db(3.0), &radio);
        let high = packet_success_probability(Db(15.0), &radio);
        assert!(low < 0.01, "{low}");
        assert!((mid - 0.5).abs() < 0.01, "{mid}");
        assert!(high > 0.99, "{high}");
        assert!(low < mid && mid < high);
    }

    #[test]
    fn sweep_matches_per_beam_rss_bit_for_bit() {
        // Street canyon: multiple rays, so the one-pass accumulation order
        // is actually exercised.
        let mut rng = StdRng::seed_from_u64(9);
        let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
        let env = Environment::street_canyon(100.0, 20.0);
        let paths = ch.paths(&mut rng, &env, Vec2::new(-10.0, 3.0), Vec2::new(12.0, -2.0));
        assert!(paths.len() >= 2);
        let bs = Codebook::uniform_sectored(16, crate::geometry::Degrees(30.0));
        let ue = Codebook::for_class(BeamwidthClass::Narrow);
        let tx_pose = Pose::new(Vec2::new(-10.0, 3.0), Radians(0.4));
        let rx_pose = Pose::new(Vec2::new(12.0, -2.0), Radians(-1.1));

        let mut out = vec![Dbm(0.0); bs.len()];
        assert!(rss_sweep_tx(
            Dbm(10.0),
            tx_pose,
            &bs,
            rx_pose,
            &ue,
            BeamId(3),
            &paths,
            &mut out
        ));
        for (b, &got) in out.iter().enumerate() {
            let want = rss(
                Dbm(10.0),
                tx_pose,
                &bs,
                BeamId(b as u16),
                rx_pose,
                &ue,
                BeamId(3),
                &paths,
            )
            .unwrap();
            assert_eq!(got, want, "tx beam {b}");
        }

        // Empty paths: untouched output, false.
        let sentinel = Dbm(123.0);
        let mut out2 = vec![sentinel; bs.len()];
        assert!(!rss_sweep_tx(
            Dbm(10.0),
            tx_pose,
            &bs,
            rx_pose,
            &ue,
            BeamId(3),
            &[],
            &mut out2
        ));
        assert!(out2.iter().all(|&v| v == sentinel));
    }

    #[test]
    fn radio_cal_matches_free_functions() {
        let radio = RadioConfig::ni_60ghz_testbed();
        let cal = radio.cal();
        for v in [-95.0, -80.0, -74.0, -73.9, -68.0, -67.9, -50.0] {
            let r = Dbm(v);
            assert_eq!(cal.snr(r), snr(r, &radio));
            assert_eq!(cal.detectable(r), detectable(r, &radio));
            assert_eq!(cal.acquirable(r), acquirable(r, &radio));
            assert_eq!(
                cal.packet_success_probability(snr(r, &radio)),
                packet_success_probability(snr(r, &radio), &radio)
            );
        }
    }

    #[test]
    fn detection_threshold_boundary() {
        let radio = RadioConfig::ni_60ghz_testbed();
        let floor = radio.noise_floor();
        assert!(detectable(floor + Db(0.1), &radio));
        assert!(!detectable(floor - Db(0.1), &radio));
    }
}
