//! Byte-for-byte pins of the exact per-station engine.
//!
//! The certificate gate (`CERTIFICATES.md`) pins the exact engine on the
//! ideal channel with the strategy search choosing the jams. These cases
//! pin what it leaves open, one case per channel feature: the recorded
//! delivery slots, stochastic noise on every busy slot, a budgeted
//! reactive jammer, missed deliveries on Poisson arrivals, noise and
//! missed deliveries together, a capped bursty run under a periodic jammer
//! with a ring trace, a Log-fails Adaptive batch, and the jam log of
//! `run_logging_jams`.
//!
//! Each case pins the full `RunResult`, every message's
//! `delivered_slot:transmissions` in station order (`-` for undelivered),
//! and the trace where one is recorded. The values come from fixed seeds,
//! so a refactor of the station loop that leaves them intact has kept the
//! engine's output and its RNG consumption byte-identical.

use mac_adversary::{AdversaryModel, AdversaryScenario, JamTrigger};
use mac_channel::{ArrivalModel, ArrivalSchedule};
use mac_prob::rng::Xoshiro256pp;
use mac_protocols::ProtocolKind;
use mac_sim::exact::DetailedRun;
use mac_sim::{ExactSimulator, RunOptions, RunResult};
use rand::SeedableRng;

fn ofa() -> ProtocolKind {
    ProtocolKind::OneFailAdaptive { delta: 2.72 }
}

fn batch(k: usize) -> ArrivalSchedule {
    ArrivalSchedule::new(vec![0; k])
}

fn jamming(model: AdversaryModel) -> RunOptions {
    RunOptions::adversarial(AdversaryScenario::jamming(model))
}

/// The pinned `RunResult` of a run without recorded delivery slots.
#[allow(clippy::too_many_arguments)]
fn result(
    protocol: &str,
    k: u64,
    seed: u64,
    makespan: u64,
    delivered: u64,
    collisions: u64,
    silent_slots: u64,
    jammed_deliveries: u64,
    never_activated: u64,
) -> RunResult {
    RunResult {
        protocol: protocol.to_string(),
        k,
        seed,
        makespan,
        completed: delivered == k,
        delivered,
        collisions,
        silent_slots,
        jammed_deliveries,
        never_activated,
        delivery_slots: None,
    }
}

/// Every message's `delivered_slot:transmissions`, in station order.
fn messages(run: &DetailedRun) -> String {
    run.messages
        .iter()
        .map(|m| match m.delivered_slot {
            Some(slot) => format!("{slot}:{}", m.transmissions),
            None => format!("-:{}", m.transmissions),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn recorded_delivery_slots_on_the_ideal_channel() {
    let run = ExactSimulator::new(ofa(), RunOptions::recording_deliveries())
        .run_schedule(&batch(40), 31)
        .unwrap();
    let slots = vec![
        20, 36, 40, 46, 50, 56, 62, 64, 82, 92, 96, 100, 110, 116, 122, 128, 136, 142, 144, 154,
        159, 171, 176, 182, 184, 192, 197, 204, 211, 213, 216, 217, 219, 220, 225, 228, 229, 230,
        236, 243,
    ];
    assert_eq!(slots.iter().sum::<u64>(), 5948);
    let expected = RunResult {
        delivery_slots: Some(slots),
        ..result("One-fail Adaptive", 40, 31, 244, 40, 178, 26, 0, 0)
    };
    assert_eq!(run.result, expected);
    let expected = concat!(
        "229:43 228:48 46:21 64:17 56:16 176:41 122:35 225:39 128:33 100:25 ",
        "211:41 82:27 236:45 159:45 50:20 192:38 243:50 230:45 40:16 36:15 ",
        "171:36 136:34 116:36 110:31 96:24 142:34 20:13 62:18 216:39 213:41 ",
        "184:36 92:30 219:41 197:45 182:32 217:55 154:36 204:49 220:45 144:29",
    );
    assert_eq!(messages(&run), expected);
    assert!(run.trace.is_none());
}

#[test]
fn stochastic_noise_jams_busy_slots_and_marks_the_trace() {
    let run = ExactSimulator::new(
        ProtocolKind::ExpBackonBackoff { delta: 0.366 },
        jamming(AdversaryModel::StochasticNoise { p: 0.2 }),
    )
    .with_trace(64)
    .run_schedule(&batch(40), 32)
    .unwrap();
    let expected = result("Exp Back-on/Back-off", 40, 32, 287, 40, 122, 125, 14, 0);
    assert_eq!(run.result, expected);
    let expected = concat!(
        "82:19 162:27 208:27 100:19 231:28 124:21 114:20 226:28 177:27 96:19 ",
        "220:28 247:28 201:27 115:20 74:19 238:28 180:27 91:19 270:29 47:13 ",
        "126:21 174:27 286:30 44:12 103:20 71:19 102:20 95:19 108:20 195:27 ",
        "86:19 272:29 111:20 118:20 38:12 179:27 172:27 279:29 78:19 52:13",
    );
    assert_eq!(messages(&run), expected);
    // The ring keeps the last 64 of 287 slots: `!` marks a jammed busy
    // slot, single or contended.
    let trace = run.trace.unwrap();
    assert_eq!(
        trace.ascii_timeline(),
        "..!*....*......*!.......*x.....................*.*...!..*......*"
    );
    assert_eq!(trace.dropped(), 223);
    assert_eq!(
        trace.delivery_slots(),
        vec![226, 231, 238, 247, 270, 272, 279, 286]
    );
}

#[test]
fn budgeted_reactive_jammer_spends_its_budget_on_singles() {
    let run = ExactSimulator::new(
        ProtocolKind::LoglogIteratedBackoff { r: 2.0 },
        jamming(AdversaryModel::BudgetedReactiveJam {
            budget: 8,
            trigger: JamTrigger::NearSuccess,
        }),
    )
    .run_schedule(&batch(30), 33)
    .unwrap();
    let expected = result("Loglog-iterated Back-off", 30, 33, 202, 30, 84, 88, 8, 0);
    assert_eq!(run.result, expected);
    let expected = concat!(
        "127:13 102:12 201:15 62:10 82:11 77:11 171:14 122:13 134:13 135:13 ",
        "90:11 110:13 87:11 106:12 68:10 76:11 86:11 89:11 79:11 60:10 105:12 ",
        "85:11 131:13 119:13 96:12 180:15 158:14 74:10 108:13 104:12",
    );
    assert_eq!(messages(&run), expected);
}

#[test]
fn feedback_faults_on_poisson_arrivals_leave_the_tally_true() {
    let schedule = ArrivalModel::Poisson {
        rate: 0.3,
        horizon: 200,
    }
    .sample(&mut Xoshiro256pp::seed_from_u64(34));
    let options = RunOptions::adversarial(AdversaryScenario::faulty_feedback(0.2));
    let run = ExactSimulator::new(ProtocolKind::KnownKOracle, options)
        .run_schedule(&schedule, 35)
        .unwrap();
    let expected = result("Known-k oracle", 73, 35, 502, 73, 14, 415, 0, 0);
    assert_eq!(run.result, expected);
    let expected = concat!(
        "52:1 138:1 41:1 199:3 21:1 113:1 71:1 163:2 109:1 63:1 51:1 50:1 ",
        "299:4 72:1 255:2 88:1 121:1 248:3 95:1 86:1 135:1 98:1 131:1 90:1 ",
        "89:1 220:3 219:1 104:1 263:3 127:1 172:1 125:1 212:2 232:3 268:2 ",
        "294:1 182:2 372:1 156:1 240:1 134:1 308:1 150:1 128:1 235:2 275:3 ",
        "191:1 148:1 201:1 152:1 165:2 363:2 224:2 184:1 175:2 368:1 365:1 ",
        "207:1 189:1 501:1 178:1 202:2 258:1 304:1 200:1 238:1 295:1 291:2 ",
        "192:1 400:1 279:3 203:1 246:2",
    );
    assert_eq!(messages(&run), expected);
}

#[test]
fn noise_and_feedback_faults_share_the_adversary_stream() {
    // Both draw from one adversary stream, so this case pins their call
    // order: the jam decision on a busy slot, then, on a delivery the jam
    // left standing, whether the listeners miss it.
    let scenario = AdversaryScenario {
        jamming: AdversaryModel::StochasticNoise { p: 0.15 },
        miss_delivery: 0.3,
    };
    let run = ExactSimulator::new(ofa(), RunOptions::adversarial(scenario))
        .with_trace(48)
        .run_schedule(&batch(30), 39)
        .unwrap();
    let expected = result("One-fail Adaptive", 30, 39, 244, 30, 120, 94, 1, 0);
    assert_eq!(run.result, expected);
    let expected = concat!(
        "88:37 167:39 243:51 217:52 138:43 163:38 152:40 185:47 165:42 28:16 ",
        "42:23 32:19 40:24 154:49 142:43 104:34 196:47 146:43 10:6 128:35 ",
        "219:48 56:24 124:39 162:46 213:56 197:49 139:37 108:33 24:15 70:29",
    );
    assert_eq!(messages(&run), expected);
    let trace = run.trace.unwrap();
    assert_eq!(
        trace.ascii_timeline(),
        "**...x.....x.....*.x.*.*.......................*"
    );
    assert_eq!(trace.dropped(), 196);
}

#[test]
fn capped_bursts_under_a_periodic_jammer_with_a_ring_trace() {
    let schedule = ArrivalModel::Bursts {
        bursts: vec![(0, 6), (40, 6), (5000, 4)],
    }
    .sample(&mut Xoshiro256pp::seed_from_u64(0));
    // A zero per-message budget caps the run at the last arrival, so the
    // burst at slot 5000 is never activated.
    let options = RunOptions {
        slot_cap_per_message: 0,
        min_slot_cap: 0,
        ..jamming(AdversaryModel::PeriodicJam {
            period: 3,
            burst: 1,
            phase: 0,
        })
    };
    let run = ExactSimulator::new(ofa(), options)
        .with_trace(64)
        .run_schedule(&schedule, 36)
        .unwrap();
    let expected = result("One-fail Adaptive", 16, 36, 5000, 12, 22, 4966, 5, 4);
    assert_eq!(run.result, expected);
    let expected = concat!(
        "10:4 26:9 13:6 4:3 11:6 16:7 59:7 61:9 62:10 58:10 50:7 56:7 -:0 -:0 ",
        "-:0 -:0",
    );
    assert_eq!(messages(&run), expected);
    // The jammer fires on every third slot, but an empty slot stays silent.
    let trace = run.trace.unwrap();
    assert_eq!(trace.ascii_timeline(), ".".repeat(64));
    assert_eq!(trace.dropped(), 5000 - 64);
    assert_eq!(trace.entries()[63].slot, 4999);
}

#[test]
fn log_fails_adaptive_batch_on_the_ideal_channel() {
    let run = ExactSimulator::new(
        ProtocolKind::LogFailsAdaptive {
            xi_delta: 0.1,
            xi_beta: 0.1,
            xi_t: 0.5,
        },
        RunOptions::default(),
    )
    .run_schedule(&batch(25), 37)
    .unwrap();
    let expected = result(
        "Log-fails Adaptive (xi_t=1/2)",
        25,
        37,
        114,
        25,
        74,
        15,
        0,
        0,
    );
    assert_eq!(run.result, expected);
    let expected = concat!(
        "63:12 82:16 38:3 107:13 74:10 54:7 57:10 80:13 90:10 92:17 84:12 98:15 ",
        "34:3 113:19 26:5 111:18 97:14 58:7 46:8 109:22 85:17 106:16 20:1 59:8 ",
        "100:15",
    );
    assert_eq!(messages(&run), expected);
}

#[test]
fn jam_log_lists_the_jammed_would_be_deliveries() {
    let (run, log) =
        ExactSimulator::new(ofa(), jamming(AdversaryModel::StochasticNoise { p: 0.3 }))
            .run_logging_jams(20, 38)
            .unwrap();
    let expected = result("One-fail Adaptive", 20, 38, 152, 20, 79, 53, 10, 0);
    assert_eq!(run, expected);
    assert_eq!(log, vec![34, 38, 50, 80, 103, 105, 106, 108, 114, 147]);
    assert_eq!(log.len() as u64, run.jammed_deliveries);
}
