//! Property tests: PDU codec round-trips, PRACH occasion arithmetic, and
//! RACH preamble-collision resolution. (The canonical-order properties of
//! resolving merged occasions live with the RACH stage, in the root
//! crate's `tests/proptests.rs`.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};
use st_des::{SimDuration, SimTime};
use st_mac::pdu::{CellId, Pdu, UeId};
use st_mac::rach::{RachConfig, RachProcedure, RachState};
use st_mac::responder::{RachResponder, ResponderConfig};
use st_mac::timing::SsbConfig;
use st_mac::PrachConfig;

fn arb_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![
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
    ]
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
