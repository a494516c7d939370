//! Property tests of the RACH stage's canonical order: however a run's
//! attempts are collected — the order they are ingested in, how they are
//! split over shard mailboxes — `SharedRachStage` resolves them to the
//! same replies, in the same delivery order, with the same responder
//! statistics and stage counters. And a reused occasion fabricates no
//! contention loss.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};
use silent_tracker_repro::st_des::{SimDuration, SimTime};
use silent_tracker_repro::st_mac::pdu::{Pdu, UeId};
use silent_tracker_repro::st_mac::responder::{ResponderConfig, ResponderStats};
use silent_tracker_repro::st_net::stage::{
    RachAttemptMsg, RachReply, RachReq, SharedRachStage, StageCounters,
};

/// Barrier spacing (the fleet's epoch, `min(rar_delay, msg4_delay)`)
/// and the number of barriers the generated attempts span.
const EPOCH_US: u64 = 2_000;
const BARRIERS: u64 = 3;

fn us(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(v)
}

fn horizon(k: u64) -> SimTime {
    us(k * EPOCH_US)
}

/// One published attempt on a small, collision-prone grid: instants
/// 0.5 ms apart (some exactly at a barrier), three cells, three preambles
/// and two beams. One in four is a Msg3 under one of the first temporary
/// ids a responder hands out (from 1000), or under none.
fn arb_attempt() -> impl Strategy<Value = RachAttemptMsg> {
    (
        1u64..13,
        0u64..32,
        0u16..3,
        0u8..3,
        0u16..2,
        0u32..5,
        0u8..4,
    )
        .prop_map(
            |(slot, ue, cell, preamble, beam, temp, kind)| RachAttemptMsg {
                at: us(slot * 500),
                ue_global: ue,
                shard: 0,
                cell,
                req: if kind == 0 {
                    RachReq::Msg3 {
                        temp: (temp > 0).then(|| UeId(999 + temp)),
                        ue: UeId(ue as u32 + 1),
                        context_token: ue % 3,
                        reply_tx_beam: beam,
                    }
                } else {
                    RachReq::Preamble {
                        preamble,
                        ssb_beam: beam,
                        distance_m: 50.0 + ue as f64,
                    }
                },
            },
        )
}

/// A UE publishes at most one attempt per instant: keep one per
/// (instant, UE), in that order, and route each UE to shard `ue % shards`.
fn dedup(mut v: Vec<RachAttemptMsg>, shards: u64) -> Vec<RachAttemptMsg> {
    v.sort_by_key(|m| (m.at, m.ue_global));
    v.dedup_by_key(|m| (m.at, m.ue_global));
    for m in &mut v {
        m.shard = (m.ue_global % shards) as u32;
    }
    v
}

/// Deterministic Fisher–Yates driven by the test's shuffle seed.
fn shuffle(v: &mut [RachAttemptMsg], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..(i as u32 + 1)) as usize;
        v.swap(i, j);
    }
}

type Resolved = (Vec<(u32, RachReply)>, Vec<ResponderStats>, StageCounters);

/// Run a fleet-shaped stage: before barrier `k`, `mailboxes(k)` yields
/// the mailboxes to ingest, in ingest order. Returns the replies in
/// delivery order, the per-cell responder statistics and the counters.
fn run_stage(mut mailboxes: impl FnMut(u64) -> Vec<Vec<RachAttemptMsg>>) -> Resolved {
    let mut stage = SharedRachStage::new(3, ResponderConfig::nr_default(), 8);
    let mut replies = Vec::new();
    for k in 1..=BARRIERS {
        for mut mailbox in mailboxes(k) {
            stage.ingest(&mut mailbox);
        }
        stage.resolve_up_to(horizon(k), |shard, r| replies.push((shard, r)));
    }
    stage.assert_drained();
    (replies, stage.responder_stats(), stage.counters())
}

/// The attempts that arrive during epoch `k`: (horizon(k − 1), horizon(k)].
fn in_epoch(k: u64) -> impl Fn(&&RachAttemptMsg) -> bool {
    move |m: &&RachAttemptMsg| m.at > horizon(k - 1) && m.at <= horizon(k)
}

proptest! {
    /// Permutation invariance: the order attempts are ingested in
    /// (worker scheduling, mailbox interleaving) does not change the
    /// resolved run — replies in delivery order, statistics and counters
    /// are identical for any permutation, one attempt per mailbox or all
    /// up front.
    #[test]
    fn resolve_is_permutation_invariant(
        raw in prop::collection::vec(arb_attempt(), 1..32),
        shuffle_seed: u64,
    ) {
        let canonical = dedup(raw, 4);
        let mut shuffled = canonical.clone();
        shuffle(&mut shuffled, shuffle_seed);
        let a = run_stage(|k| if k == 1 { vec![canonical.clone()] } else { Vec::new() });
        let b = run_stage(|k| {
            if k == 1 {
                shuffled.iter().map(|m| vec![m.clone()]).collect()
            } else {
                Vec::new()
            }
        });
        prop_assert_eq!(a, b);
    }

    /// Merge associativity: each epoch's attempts split over per-shard
    /// mailboxes (by UE, like the fleet) and drained from an arbitrary
    /// shard onwards resolve exactly as the already-merged epoch does —
    /// how the attempts were collected is invisible once they meet at
    /// the barrier. This is the property the fleet's shard-count and
    /// worker-count invariance rests on.
    #[test]
    fn resolve_is_merge_associative(
        raw in prop::collection::vec(arb_attempt(), 1..32),
        n_shards in 1u64..5,
        rotate in 0u64..5,
    ) {
        let merged = dedup(raw, n_shards);
        let a = run_stage(|k| vec![merged.iter().filter(in_epoch(k)).cloned().collect()]);
        let b = run_stage(|k| {
            (0..n_shards)
                .map(|s| {
                    let shard = ((s + rotate) % n_shards) as u32;
                    merged
                        .iter()
                        .filter(in_epoch(k))
                        .filter(|m| m.shard == shard)
                        .cloned()
                        .collect()
                })
                .collect()
        });
        prop_assert_eq!(a, b);
    }

    /// Occasion reuse through the stage fabricates no contention loss:
    /// after a merged occasion's contention concludes, a later occasion
    /// reusing the same (preamble, beam) gets a fresh procedure — its
    /// Msg3 is answered, and the only loss recorded is the first
    /// occasion's genuine loser.
    #[test]
    fn resolve_occasion_reuse_has_no_phantom_losses(
        gap_ms in 5u64..45,
        preamble in 0u8..8,
        beam in 0u16..8,
    ) {
        let mut stage = SharedRachStage::new(1, ResponderConfig::nr_default(), 4);
        let mut step = |at: SimTime, attempts: Vec<(u64, RachReq)>| {
            let mut mailbox: Vec<RachAttemptMsg> = attempts
                .into_iter()
                .map(|(ue, req)| RachAttemptMsg { at, ue_global: ue, shard: ue as u32, cell: 0, req })
                .collect();
            stage.ingest(&mut mailbox);
            let mut replies = Vec::new();
            stage.resolve_up_to(at, |_, r| replies.push(r));
            (replies, stage.responder_stats()[0])
        };
        let pre = || RachReq::Preamble { preamble, ssb_beam: beam, distance_m: 80.0 };
        let msg3 = |temp, ue: u64| RachReq::Msg3 {
            temp: Some(temp),
            ue: UeId(ue as u32),
            context_token: 0xA0 + ue,
            reply_tx_beam: beam,
        };
        let temp_of = |r: &RachReply| match r.pdu {
            Pdu::RachResponse { temp_ue, .. } => temp_ue,
            _ => unreachable!(),
        };

        // Occasion 1: UEs 1 and 2, from two shards, collide.
        let t0 = us(1_000);
        let (rars, stats) = step(t0, vec![(2, pre()), (1, pre())]);
        prop_assert_eq!(rars.len(), 2);
        let temp1 = temp_of(&rars[0]);
        prop_assert_eq!(temp_of(&rars[1]), temp1);
        prop_assert_eq!(stats.collisions, 1);
        // UE 1 wins contention; UE 2's Msg3 is the genuine loss.
        let msg3_at = t0 + SimDuration::from_millis(4);
        let (msg4s, _) = step(msg3_at, vec![(1, msg3(temp1, 1))]);
        prop_assert_eq!(msg4s.len(), 1);
        let late = msg3_at + SimDuration::from_micros(10);
        let (msg4s, stats) = step(late, vec![(2, msg3(temp1, 2))]);
        prop_assert!(msg4s.is_empty());
        prop_assert_eq!(stats.contention_losses, 1);

        // Occasion 2, same (preamble, beam), after contention concluded
        // but inside pending_ttl: UE 3 must get a fresh procedure.
        let t1 = t0 + SimDuration::from_millis(gap_ms);
        let (rars, _) = step(t1, vec![(3, pre())]);
        let temp2 = temp_of(&rars[0]);
        prop_assert!(temp1 != temp2, "later occasion inherited the concluded entry");
        let (msg4s, stats) = step(t1 + SimDuration::from_millis(3), vec![(3, msg3(temp2, 3))]);
        prop_assert_eq!(msg4s.len(), 1);
        // No phantom loss: the count is still occasion 1's single loser.
        prop_assert_eq!(stats.contention_losses, 1);
        prop_assert_eq!(stats.collisions, 1);
    }
}
