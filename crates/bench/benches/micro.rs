//! Criterion micro-benchmarks for the hot paths of the stack:
//! event queue, channel evaluation, codebook gain, PDU codec, and the
//! tracker state-machine fold.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use silent_tracker::{ProtocolCtx, ProtocolEvent, SilentState, TrackerConfig};
use st_des::{EventQueue, SimDuration, SimTime};
use st_mac::pdu::{CellId, Pdu, UeId};
use st_phy::channel::{ChannelConfig, Environment, LinkChannel};
use st_phy::codebook::{BeamId, BeamwidthClass, Codebook};
use st_phy::geometry::{Radians, Vec2};
use st_phy::units::Dbm;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        })
    });
}

fn bench_channel(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut ch = LinkChannel::new(&mut rng, ChannelConfig::outdoor_60ghz());
    let env = Environment::street_canyon(200.0, 30.0);
    c.bench_function("channel_paths_canyon", |b| {
        b.iter(|| black_box(ch.paths(&mut rng, &env, Vec2::new(-40.0, 10.0), Vec2::new(3.0, 0.0))))
    });
}

fn bench_codebook(c: &mut Criterion) {
    let cb = Codebook::for_class(BeamwidthClass::Narrow);
    c.bench_function("codebook_best_beam", |b| {
        let mut angle = 0.0f64;
        b.iter(|| {
            angle += 0.01;
            black_box(cb.best_beam_towards(Radians(angle.sin() * 3.0)))
        })
    });
    c.bench_function("codebook_gain_lookup", |b| {
        b.iter(|| black_box(cb.gain(BeamId(7), Radians(0.3))))
    });
}

fn bench_pdu(c: &mut Criterion) {
    let pdu = Pdu::RachResponse {
        preamble: 42,
        timing_advance_ns: 667,
        temp_ue: UeId(1001),
    };
    c.bench_function("pdu_encode", |b| b.iter(|| black_box(pdu.encode())));
    let wire = pdu.encode();
    c.bench_function("pdu_decode", |b| {
        b.iter(|| black_box(Pdu::decode(&wire).unwrap()))
    });
}

fn bench_tracker_step(c: &mut Criterion) {
    c.bench_function("tracker_serving_rss_input", |b| {
        let ctx = ProtocolCtx::new(
            TrackerConfig::paper_defaults(),
            UeId(1),
            CellId(0),
            Codebook::for_class(BeamwidthClass::Narrow),
        );
        let mut state = SilentState::initial(&ctx, BeamId(4));
        let mut actions = Vec::new();
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_millis(5);
            actions.clear();
            let ev = ProtocolEvent::ServingRss {
                at: t,
                rss: Dbm(-62.0),
            };
            state.handle(&ctx, &ev, &mut actions);
            black_box(actions.len())
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_channel,
    bench_codebook,
    bench_pdu,
    bench_tracker_step
);
criterion_main!(benches);
