//! The control step's contracts, through the public API: a held lane
//! means the same thing under every policy — `valid[i] == false` resyncs
//! the lane's totals, judges nothing, moves no way, and reports `skipped`
//! — a wrong-length input is an error that programs nothing, and a counter
//! width no hardware has is refused where the loop is built.

use dcat::{
    CachePolicy, ControlLoop, DcatConfig, DcatController, LfocConfig, LfocPolicy, MemshareConfig,
    MemsharePolicy, ResiliencePolicy, SharedCachePolicy, StaticCatPolicy, TickInput, Totals,
    WorkloadHandle,
};
use dcat_obs::Tracer;
use perf_events::CounterSnapshot;
use resctrl::{CatCapabilities, InMemoryController, ResctrlError};

type Build = fn(Vec<WorkloadHandle>, &mut InMemoryController) -> Box<dyn CachePolicy>;

const POLICIES: [Build; 5] = [
    |h, cat| Box::new(SharedCachePolicy::new(h, cat)),
    |h, cat| Box::new(StaticCatPolicy::new(h, cat).unwrap()),
    |h, cat| Box::new(DcatController::new(DcatConfig::default(), h, cat).unwrap()),
    |h, cat| Box::new(LfocPolicy::new(h, cat, LfocConfig::default()).unwrap()),
    |h, cat| Box::new(MemsharePolicy::new(h, cat, MemshareConfig).unwrap()),
];

/// Totals after `t` intervals: lane 0 never touches the LLC (a lender, a
/// donor, the insensitive bucket), lane 1 misses half its references (a
/// borrower, a grower, a sensitive cluster). Both retire at IPC 1.
fn totals(t: u64) -> [CounterSnapshot; 2] {
    [(0, 0), (400, 200)].map(|(llc_ref, llc_miss)| CounterSnapshot {
        l1_ref: 333 * t,
        llc_ref: llc_ref * t,
        llc_miss: llc_miss * t,
        ret_ins: 1000 * t,
        cycles: 1000 * t,
    })
}

fn decide<'p>(
    policy: &'p mut dyn CachePolicy,
    snapshots: &[CounterSnapshot],
    valid: &[bool],
    cat: &mut InMemoryController,
) -> Result<&'p [dcat::DomainReport], resctrl::ResctrlError> {
    let input = TickInput {
        snapshots,
        valid,
        tracer: &mut Tracer::disabled(),
    };
    dcat::policy::apply(policy, input, cat)?;
    Ok(policy.reports())
}

#[test]
fn a_held_lane_keeps_its_ways_its_class_and_its_ledger_under_every_policy() {
    for build in POLICIES {
        let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 4);
        let handles = vec![
            WorkloadHandle::new("quiet", vec![0], 8),
            WorkloadHandle::new("hungry", vec![1], 8),
        ];
        let mut p = build(handles, &mut cat);
        let name = p.name();

        let writes = cat.log.len();
        let short = p.tick(&totals(1)[..1], &mut cat).unwrap_err();
        assert!(short.is_transient(), "{name}: {short}");
        assert!(decide(&mut *p, &totals(1), &[true], &mut cat).is_err());
        assert!(p.reports().is_empty(), "{name}: nothing completed yet");
        assert_eq!(cat.log.len(), writes, "{name}: nothing programmed");

        for t in 1..=8 {
            p.tick(&totals(t), &mut cat).unwrap();
        }
        let before = p.reports()[1].clone();
        let ext = p.frame_ext();
        // Twelve ticks without a sample from `hungry`. Read as valid, its
        // frozen totals are idle intervals: dCat would defund it, LFOC
        // would fence it into the insensitive bucket within three
        // reclusterings, Memshare would have it lend everything at once.
        // The last held sample jumps: whatever a held lane's totals say is
        // resynced to, not judged.
        let held = |t| CounterSnapshot {
            ret_ins: totals(8)[1].ret_ins + if t == 20 { 5000 } else { 0 },
            cycles: totals(8)[1].cycles + if t == 20 { 5000 } else { 0 },
            ..totals(8)[1]
        };
        for t in 9..=20 {
            let snaps = [totals(t)[0], held(t)];
            let r = decide(&mut *p, &snaps, &[true, false], &mut cat).unwrap();
            assert!(r[1].skipped && !r[0].skipped, "{name} tick {t}: {r:?}");
            assert_eq!((r[1].ways, r[1].class), (before.ways, before.class));
            assert_eq!((r[1].ipc, r[1].norm_ipc), (0.0, None), "{name}: filler");
            let now = p.frame_ext();
            assert_eq!(now.lfoc, ext.lfoc, "{name} tick {t}: not re-clustered");
            let borrowed = |e: dcat_obs::PolicyExt| e.memshare.map(|m| m.credit_min);
            assert_eq!(borrowed(now), borrowed(ext), "{name}: its ledger stands");
        }
        // The next valid interval subtracts from the resynced totals.
        let mut snaps = totals(21);
        snaps[1] = CounterSnapshot {
            ret_ins: held(20).ret_ins + 1000,
            cycles: held(20).cycles + 2000,
            ..held(20)
        };
        let r = p.tick(&snaps, &mut cat).unwrap();
        assert!(
            !r[1].skipped && (r[1].ipc - 0.5).abs() < 1e-9,
            "{name}: {r:?}"
        );
    }
}

/// Steps a one-domain dCat loop over `totals`, one tick each.
fn stepped(bits: u32, totals: &[&[CounterSnapshot]]) -> Result<(), ResctrlError> {
    let mut cat = InMemoryController::new(CatCapabilities::with_ways(20), 2);
    let handles = vec![WorkloadHandle::new("w", vec![0, 1], 4)];
    let mut policy = DcatController::new(DcatConfig::default(), handles.clone(), &mut cat)?;
    let resilience = ResiliencePolicy {
        counter_width_bits: bits,
        ..ResiliencePolicy::default()
    };
    let mut ctl = ControlLoop::new(&mut policy, handles, resilience)?;
    for totals in totals {
        let mut tracer = Tracer::disabled();
        let obs = ctl.step(&mut Totals(totals), &mut cat, &mut tracer, |_, _| {})?;
        assert_eq!(obs.reports[0].skipped, totals.is_empty(), "{obs:?}");
        assert!(!obs.degraded && obs.events.is_empty(), "{obs:?}");
    }
    Ok(())
}

/// `dcatd --counter-width-bits 0` used to die on its second tick, in
/// `delta_since_wrap_aware`'s assertion.
#[test]
fn counter_width_is_validated_where_the_loop_is_built() {
    let total = |n| CounterSnapshot {
        ret_ins: n,
        cycles: n,
        ..CounterSnapshot::default()
    };
    // Two samples: the second is the first to take a wrap-aware delta.
    // Then a tick with no totals at all: a held lane, not an error.
    let totals: [&[CounterSnapshot]; 3] = [&[total(1)], &[total(2)], &[]];
    for bits in [0, 1, 48, 64, 65] {
        match stepped(bits, &totals) {
            Ok(()) => assert!((1..=64).contains(&bits), "{bits} bits accepted"),
            Err(e) => assert!(
                matches!(e, ResctrlError::Refused(_))
                    && !e.is_transient()
                    && !(1..=64).contains(&bits),
                "{bits} bits: {e}"
            ),
        }
    }
}
