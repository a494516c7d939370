//! Property tests: PDU codec round-trips, schedule arithmetic, and RACH
//! preamble-collision resolution.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};
use st_des::{SimDuration, SimTime};
use st_mac::pdu::{CellId, Pdu, UeId};
use st_mac::rach::{RachConfig, RachProcedure, RachState};
use st_mac::responder::{PreambleRx, RachResponder, ResponderConfig};
use st_mac::schedule::GapSchedule;
use st_mac::timing::SsbConfig;
use st_mac::PrachConfig;

fn arb_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(c, s)| Pdu::KeepAlive {
            cell: CellId(c),
            seq: s
        }),
        (any::<u16>(), any::<u32>(), any::<u16>()).prop_map(|(c, u, b)| {
            Pdu::BeamSwitchRequest {
                cell: CellId(c),
                ue: UeId(u),
                suggested_tx_beam: b,
            }
        }),
        (any::<u16>(), any::<u16>()).prop_map(|(c, b)| Pdu::BeamSwitchCommand {
            cell: CellId(c),
            tx_beam: b
        }),
        (any::<u8>(), any::<u16>()).prop_map(|(p, b)| Pdu::RachPreamble {
            preamble: p,
            ssb_beam: b
        }),
        (any::<u8>(), any::<u32>(), any::<u32>()).prop_map(|(p, ta, u)| Pdu::RachResponse {
            preamble: p,
            timing_advance_ns: ta,
            temp_ue: UeId(u),
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(u, t)| Pdu::ConnectionRequest {
            ue: UeId(u),
            context_token: t
        }),
        (any::<u32>(), any::<bool>()).prop_map(|(u, a)| Pdu::ContentionResolution {
            ue: UeId(u),
            accepted: a
        }),
        (any::<u32>(), any::<u64>(), any::<u16>()).prop_map(|(u, t, l)| Pdu::HandoverContext {
            ue: UeId(u),
            context_token: t,
            payload_len: l,
        }),
        any::<u32>().prop_map(|u| Pdu::HandoverComplete { ue: UeId(u) }),
    ]
}

/// A heard preamble on a small, collision-prone grid of occasions,
/// preambles and beams.
fn arb_attempt() -> impl Strategy<Value = PreambleRx> {
    (0u64..1500, 1u32..40, 0u8..3, 0u16..3).prop_map(|(us, ue, preamble, beam)| PreambleRx {
        at: SimTime::ZERO + SimDuration::from_micros(us),
        ue: UeId(ue),
        preamble,
        ssb_beam: beam,
        distance_m: 50.0 + ue as f64,
    })
}

/// A physical UE transmits at most one preamble per instant: drop
/// duplicate (at, ue) pairs so the canonical order is a total order over
/// the attempt set.
fn dedup_attempts(mut v: Vec<PreambleRx>) -> Vec<PreambleRx> {
    v.sort_unstable_by_key(|a| (a.at.as_nanos(), a.ue.0));
    v.dedup_by_key(|a| (a.at.as_nanos(), a.ue.0));
    v
}

/// Deterministic Fisher–Yates driven by the test's shuffle seed.
fn shuffle(v: &mut [PreambleRx], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..(i as u32 + 1)) as usize;
        v.swap(i, j);
    }
}

proptest! {
    #[test]
    fn pdu_round_trip(pdu in arb_pdu()) {
        let wire = pdu.encode();
        prop_assert_eq!(Pdu::decode(&wire).unwrap(), pdu);
    }

    #[test]
    fn pdu_single_bitflip_rejected(pdu in arb_pdu(), byte_idx: prop::sample::Index, bit in 0u8..8) {
        let wire = pdu.encode().to_vec();
        let i = byte_idx.index(wire.len());
        let mut bad = wire.clone();
        bad[i] ^= 1 << bit;
        // CRC-16 catches all single-bit errors.
        prop_assert!(Pdu::decode(&bad).is_err());
    }

    #[test]
    fn next_gap_start_is_a_gap_and_not_past(
        t_ns in 0u64..10_000_000_000,
        period_ms in 10u64..100,
        dur_ms in 1u64..9,
        off_ms in 0u64..50,
    ) {
        let g = GapSchedule {
            period: SimDuration::from_millis(period_ms),
            duration: SimDuration::from_millis(dur_ms),
            offset: SimDuration::from_millis(off_ms),
        };
        prop_assume!(g.validate().is_ok());
        let t = SimTime::from_nanos(t_ns);
        let s = g.next_gap_start(t);
        prop_assert!(s >= t);
        prop_assert!(g.in_gap(s));
        // Nothing strictly between t and s is a gap start boundary:
        // the instant before s must not be the start of a gap unless s==t.
        if s > t {
            let before = SimTime::from_nanos(s.as_nanos() - 1);
            // `before` may be inside a *previous* gap only if t was too.
            if g.in_gap(before) {
                prop_assert!(g.in_gap(t));
            }
        }
    }

    /// Two UEs transmitting the *same preamble on the same PRACH occasion*
    /// must both back off through contention resolution and eventually
    /// both connect, no matter how the subsequent (seeded) preamble draws
    /// fall — including repeat collisions from the tiny 4-preamble pool.
    #[test]
    fn colliding_ues_both_eventually_resolve(seed in 0u64..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut responder = RachResponder::new(ResponderConfig::nr_default());
        let rach_cfg = RachConfig::nr_default();
        let mut procs = [
            RachProcedure::new(rach_cfg, UeId(1), 0xA1),
            RachProcedure::new(rach_cfg, UeId(2), 0xA2),
        ];
        let occasion_spacing = SimDuration::from_millis(20);
        let air = SimDuration::from_micros(500);
        let beam = 3u16;
        let n_preambles = 4u8;

        let mut connected = [false, false];
        for k in 0..16u64 {
            let occasion = SimTime::ZERO + occasion_spacing * k;
            // Expire timers so a UE that lost contention returns to Idle.
            for p in &mut procs {
                p.poll(occasion);
            }
            // Collect this occasion's transmissions (both UEs transmit at
            // the same instant — that is what a PRACH occasion is).
            for (i, proc) in procs.iter_mut().enumerate() {
                if connected[i] || !matches!(proc.state(), RachState::Idle) {
                    continue;
                }
                // Occasion 0 forces the collision; later draws are random.
                let preamble = if k == 0 { 0 } else { rng.random_range(0..n_preambles) };
                let Ok(msg1) = proc.send_preamble(occasion, beam, preamble) else {
                    continue;
                };
                let Pdu::RachPreamble { preamble, ssb_beam } = msg1 else { unreachable!() };
                let rar = responder.on_preamble(occasion + air, preamble, ssb_beam, 120.0);
                // Deliver the RAR and, if Msg3 follows, run it through
                // contention resolution.
                if let Some(plan) = rar {
                    let rar_at = occasion + air + plan.delay;
                    if let st_mac::rach::RachAction::Transmit(msg3) = proc.on_pdu(rar_at, &plan.pdu) {
                        let Pdu::ConnectionRequest { ue, context_token } = msg3 else { unreachable!() };
                        let msg3_at = rar_at + air;
                        if let Some(m4) = responder.on_msg3(msg3_at, proc.temp_ue(), ue, context_token) {
                            proc.on_pdu(msg3_at + m4.delay, &m4.pdu);
                            if proc.state() == RachState::Connected {
                                connected[i] = true;
                            }
                        }
                    }
                }
            }
            if connected.iter().all(|&c| c) {
                break;
            }
        }

        // The forced same-preamble occasion was observed as a collision…
        prop_assert!(responder.stats().collisions >= 1,
            "no collision recorded: {:?}", responder.stats());
        // …and both UEs resolved within their retry budgets.
        prop_assert!(connected[0] && connected[1],
            "unresolved after 16 occasions: {connected:?} stats={:?}", responder.stats());
        prop_assert!(responder.stats().contention_losses >= 1);
    }

    /// Permutation invariance of the shared-stage resolution core: the
    /// order attempts arrive in (worker scheduling, mailbox interleaving)
    /// must not change the resolved occasion — replies, statistics and
    /// pending-table size are identical for any input permutation.
    #[test]
    fn resolve_is_permutation_invariant(
        raw in prop::collection::vec(arb_attempt(), 1..24),
        shuffle_seed: u64,
    ) {
        let canonical = dedup_attempts(raw);
        let mut shuffled = canonical.clone();
        shuffle(&mut shuffled, shuffle_seed);

        let (mut ra, mut rb) = (RachResponder::new(ResponderConfig::nr_default()),
                                RachResponder::new(ResponderConfig::nr_default()));
        let (mut a, mut b) = (canonical, shuffled);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        ra.resolve(&mut a, &mut out_a);
        rb.resolve(&mut b, &mut out_b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(out_a, out_b);
        prop_assert_eq!(ra.stats(), rb.stats());
        prop_assert_eq!(ra.pending_count(), rb.pending_count());
    }

    /// Merge associativity: resolving the union of per-shard sub-buffers
    /// (concatenated in any shard order) is the same as resolving the
    /// already-merged occasion — sharding the *collection* of attempts is
    /// invisible once they meet in one resolution pass. This is the exact
    /// property the fleet's cross-shard responder stage relies on.
    #[test]
    fn resolve_is_merge_associative(
        raw in prop::collection::vec(arb_attempt(), 1..24),
        n_shards in 1usize..5,
        rotate in 0usize..5,
    ) {
        let merged = dedup_attempts(raw);
        // Partition into per-shard sub-buffers (round-robin on UE id,
        // like the fleet), then concatenate starting from an arbitrary
        // shard.
        let mut shards: Vec<Vec<PreambleRx>> = vec![Vec::new(); n_shards];
        for a in &merged {
            shards[a.ue.0 as usize % n_shards].push(*a);
        }
        let mut concatenated = Vec::new();
        for s in 0..n_shards {
            concatenated.extend(shards[(s + rotate) % n_shards].iter().copied());
        }

        let (mut ra, mut rb) = (RachResponder::new(ResponderConfig::nr_default()),
                                RachResponder::new(ResponderConfig::nr_default()));
        let (mut a, mut b) = (merged, concatenated);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        ra.resolve(&mut a, &mut out_a);
        rb.resolve(&mut b, &mut out_b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(out_a, out_b);
        prop_assert_eq!(ra.stats(), rb.stats());
    }

    /// Occasion reuse through the batch path must not fabricate
    /// contention losses (extends the PR 4 `concluded_at` regression to
    /// `resolve`): after a merged occasion's contention concludes, a
    /// later merged occasion reusing the same (preamble, beam) gets a
    /// fresh procedure — its Msg3 is answered, and the only losses
    /// recorded are the first occasion's genuine losers.
    #[test]
    fn resolve_occasion_reuse_has_no_phantom_losses(
        gap_ms in 5u64..45,
        preamble in 0u8..8,
        beam in 0u16..8,
    ) {
        let t0 = SimTime::ZERO + SimDuration::from_millis(1);
        let at = |off_us: u64| t0 + SimDuration::from_micros(off_us);
        let mk = |ue: u32, off_us: u64| PreambleRx {
            at: at(off_us), ue: UeId(ue), preamble, ssb_beam: beam, distance_m: 80.0,
        };
        let mut r = RachResponder::new(ResponderConfig::nr_default());
        let mut replies = Vec::new();

        // Occasion 1: UEs 1 and 2 collide.
        let mut occ1 = vec![mk(2, 3), mk(1, 0)];
        r.resolve(&mut occ1, &mut replies);
        let temp1 = match replies[0].as_ref().unwrap().pdu {
            Pdu::RachResponse { temp_ue, .. } => temp_ue,
            _ => unreachable!(),
        };
        prop_assert_eq!(r.stats().collisions, 1);
        // UE 1 wins contention; UE 2's Msg3 is the genuine loss.
        let msg3_at = t0 + SimDuration::from_millis(4);
        prop_assert!(r.on_msg3(msg3_at, Some(temp1), UeId(1), 0xA1).is_some());
        prop_assert!(r.on_msg3(msg3_at + SimDuration::from_micros(10), Some(temp1), UeId(2), 0xA2).is_none());
        prop_assert_eq!(r.stats().contention_losses, 1);

        // Occasion 2, same (preamble, beam), after contention concluded
        // but inside pending_ttl: UE 3 must get a fresh procedure.
        let t1 = t0 + SimDuration::from_millis(gap_ms);
        let mut occ2 = vec![PreambleRx {
            at: t1, ue: UeId(3), preamble, ssb_beam: beam, distance_m: 60.0,
        }];
        r.resolve(&mut occ2, &mut replies);
        let temp2 = match replies[0].as_ref().unwrap().pdu {
            Pdu::RachResponse { temp_ue, .. } => temp_ue,
            _ => unreachable!(),
        };
        prop_assert!(temp1 != temp2, "later occasion inherited the concluded entry");
        prop_assert!(r.on_msg3(t1 + SimDuration::from_millis(3), Some(temp2), UeId(3), 0xA3).is_some());
        // No phantom loss: the count is still occasion 1's single loser.
        prop_assert_eq!(r.stats().contention_losses, 1);
        prop_assert_eq!(r.stats().collisions, 1);
    }

    #[test]
    fn prach_next_occasion_not_past(t_ns in 0u64..5_000_000_000, beam in 0u16..8) {
        let ssb = SsbConfig::nr_fr2(8);
        let prach = PrachConfig::nr_default();
        let t = SimTime::from_nanos(t_ns);
        let o = prach.next_occasion(&ssb, t, beam);
        prop_assert!(o >= t);
        // Occasion is within one burst period + offset of t.
        prop_assert!(o.as_nanos() - t.as_nanos()
            <= ssb.burst_period.as_nanos() + prach.offset.as_nanos()
               + beam as u64 * prach.occasion_spacing.as_nanos());
    }
}
