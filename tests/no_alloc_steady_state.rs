//! Steady-state allocation audit.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up phase that grows every scratch buffer to its steady-state
//! capacity, the arbitration kernels and the whole router step must
//! perform **zero** heap allocations.  This pins the perf contract of
//! `SwitchScheduler::schedule_into` and the router step
//! (`FabricNode::step_cycle` over the `SwitchCore` stages): reusable
//! `Matching`/`CandidateSet` buffers plus per-arbiter struct scratch,
//! nothing allocated per cycle.
//!
//! Everything runs inside one `#[test]` because the allocator (and its
//! counter) is global to the test binary: a second concurrently-running
//! test would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mmr_core::arbiter::candidate::{Candidate, CandidateSet, Priority};
use mmr_core::arbiter::matching::Matching;
use mmr_core::arbiter::priority::Siabp;
use mmr_core::arbiter::scheduler::ArbiterKind;
use mmr_core::router::config::RouterConfig;
use mmr_core::router::fault::FaultProfile;
use mmr_core::router::router::MmrRouter;
use mmr_core::router::telemetry::TelemetryConfig;
use mmr_core::sim::engine::CycleModel;
use mmr_core::sim::fault::{FaultEvent, FaultKind, FaultPlan};
use mmr_core::sim::rng::SimRng;
use mmr_core::sim::time::{FlitCycle, RouterCycle, TimeBase};
use mmr_core::sim::units::Bandwidth;
use mmr_core::traffic::admission::RoundConfig;
use mmr_core::traffic::calendar::InjectionCalendar;
use mmr_core::traffic::connection::ConnectionId;
use mmr_core::traffic::source::TrafficSource;
use mmr_core::traffic::workload::{CbrMixBuilder, VbrInjection, VbrMixBuilder};
use mmr_core::traffic::CbrSource;

struct CountingAlloc;

// Per-thread, const-initialized (so the TLS access itself never
// allocates): the harness's other threads must not pollute the count.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count_if_armed() {
    // try_with: TLS may be mid-teardown when late allocations happen.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count allocator calls made by `f` on the calling thread.
fn allocations_in<F: FnOnce()>(f: F) -> u64 {
    ALLOC_CALLS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOC_CALLS.with(|c| c.get())
}

fn random_fill(cs: &mut CandidateSet, rng: &mut SimRng) {
    let ports = cs.ports();
    let levels = cs.levels();
    cs.clear();
    for input in 0..ports {
        // Push in descending-priority order; ties are common on purpose.
        let count = rng.index(levels + 1);
        let mut prio = 8.0;
        for vc in 0..count {
            prio -= rng.uniform();
            cs.push(Candidate {
                input,
                vc,
                output: rng.index(ports),
                priority: Priority::new(prio),
            });
        }
    }
}

/// `n` CBR sources cycling through 64 Kbps, 1.54 Mbps and 55 Mbps, with
/// phases spread over 10^6 router cycles.
fn cbr_sources(n: u32) -> Vec<Box<dyn TrafficSource + Send>> {
    let tb = TimeBase::default();
    let rates = [
        Bandwidth::kbps(64.0),
        Bandwidth::mbps(1.54),
        Bandwidth::mbps(55.0),
    ];
    (0..n)
        .map(|i| {
            let phase = RouterCycle(u64::from(i) * 7_919 % 1_000_000);
            Box::new(CbrSource::new(
                ConnectionId(i),
                rates[i as usize % 3],
                phase,
                &tb,
            )) as _
        })
        .collect()
}

/// Step `router` through flit cycles `from..from + cycles` and return
/// the next cycle: `Runner::run`'s loop, inlined so a measured window
/// can start mid-run.
fn advance(router: &mut MmrRouter, from: u64, cycles: u64, measuring: bool) -> u64 {
    for t in from..from + cycles {
        router.step(FlitCycle(t), measuring);
    }
    from + cycles
}

#[test]
fn kernels_and_router_step_allocate_nothing_in_steady_state() {
    // --- Arbitration kernels -------------------------------------------
    let ports = 16;
    let mut cs = CandidateSet::new(ports, 4);
    let mut workload_rng = SimRng::seed_from_u64(42);
    let mut out = Matching::new(ports);
    for kind in ArbiterKind::all() {
        let mut sched = kind.instantiate(ports);
        let mut rng = SimRng::seed_from_u64(7);
        // Warm up: let every scratch buffer reach steady-state capacity.
        for _ in 0..50 {
            random_fill(&mut cs, &mut workload_rng);
            sched.schedule_into(&cs, &mut rng, &mut out);
        }
        // Steady state: not a single allocator call allowed.
        let mut total_grants = 0usize;
        let allocs = allocations_in(|| {
            for _ in 0..200 {
                random_fill(&mut cs, &mut workload_rng);
                sched.schedule_into(&cs, &mut rng, &mut out);
                total_grants += out.size();
            }
        });
        assert!(
            total_grants > 0,
            "{}: workload produced no grants",
            kind.label()
        );
        assert_eq!(
            allocs,
            0,
            "{}: schedule_into allocated {allocs} times in steady state",
            kind.label()
        );
    }

    // --- Arbitration kernels, multi-word widths -------------------------
    // 128 ports = two port-set words, 256 = four.  The wide paths size
    // their scratch (port-set words, conflict buckets, sort keys) from
    // `ports`, so a buffer sized for one word that silently regrows in
    // the W=2/W=4 monomorphizations would only show up here.
    for ports in [128usize, 256] {
        let mut cs = CandidateSet::new(ports, 4);
        let mut out = Matching::new(ports);
        for kind in ArbiterKind::all() {
            let mut sched = kind.instantiate(ports);
            let mut rng = SimRng::seed_from_u64(7);
            for _ in 0..30 {
                random_fill(&mut cs, &mut workload_rng);
                sched.schedule_into(&cs, &mut rng, &mut out);
            }
            let mut total_grants = 0usize;
            let allocs = allocations_in(|| {
                for _ in 0..100 {
                    random_fill(&mut cs, &mut workload_rng);
                    sched.schedule_into(&cs, &mut rng, &mut out);
                    total_grants += out.size();
                }
            });
            assert!(
                total_grants > 0,
                "{} @ {ports} ports: workload produced no grants",
                kind.label()
            );
            assert_eq!(
                allocs,
                0,
                "{} @ {ports} ports: schedule_into allocated {allocs} times in steady state",
                kind.label()
            );
        }
    }

    // --- Full router step, multi-word widths -----------------------------
    // The whole router at 128 and 256 ports: candidate selection, the
    // wide COA kernel, crossbar bookkeeping and per-port queues all sized
    // for multi-word port sets, still zero allocations per step.
    for ports in [128usize, 256] {
        let cfg = RouterConfig {
            ports,
            ..RouterConfig::default()
        };
        let mut rng = SimRng::seed_from_u64(5);
        let workload = CbrMixBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
            .target_load(0.4)
            .build(&mut rng);
        let mut router = MmrRouter::new(
            cfg,
            workload,
            ArbiterKind::Coa.instantiate(ports),
            Box::new(Siabp),
            5,
        );
        let mut t = 0u64;
        for _ in 0..3_000 {
            router.step(FlitCycle(t), false);
            t += 1;
        }
        let allocs = allocations_in(|| {
            for _ in 0..1_500 {
                router.step(FlitCycle(t), false);
                t += 1;
            }
        });
        assert_eq!(
            allocs, 0,
            "COA router @ {ports} ports: step allocated {allocs} times in steady state"
        );
    }

    // --- TDM link scheduler --------------------------------------------
    // Both variants: pure TDM (owner-only) and backfill (priority sort
    // into the scratch vector).  After a warm-up that grows the scratch
    // to its high-water mark, selects — including the eligibility-masked
    // path and cursor wraps — must be allocation-free.  The VC memory
    // churn inside the measured region exercises push/pop reuse too.
    for backfill in [false, true] {
        use mmr_core::router::link_scheduler::VcQosInfo;
        use mmr_core::router::tdm::TdmLinkScheduler;
        use mmr_core::router::vcmem::VcMemory;
        use mmr_core::traffic::flit::Flit;
        let vcs = 8;
        let reservations: Vec<(usize, u64)> = (0..vcs)
            .map(|vc| (vc, [727u64, 181, 21, 1][vc % 4]))
            .collect();
        let qos: Vec<VcQosInfo> = (0..vcs)
            .map(|vc| VcQosInfo {
                output: vc % 4,
                reserved_slots: reservations[vc].1,
                iat_rc: 16_384.0 / reservations[vc].1 as f64,
            })
            .collect();
        let mut tdm = TdmLinkScheduler::new(0, reservations, 16_384, 64, backfill);
        let mut mem = VcMemory::new(vcs, 8, 1);
        let mut tdm_cs = CandidateSet::new(vcs, 4);
        let mut rng = SimRng::seed_from_u64(11);
        let drive = |tdm: &mut TdmLinkScheduler,
                     mem: &mut VcMemory,
                     cs: &mut CandidateSet,
                     rng: &mut SimRng,
                     cycles: u64|
         -> usize {
            let mut offered = 0;
            for t in 0..cycles {
                for _ in 0..rng.index(3) {
                    let vc = rng.index(vcs);
                    if mem.free_space(vc) > 0 {
                        mem.push(
                            vc,
                            Flit::cbr(ConnectionId(vc as u32), t, RouterCycle(t)),
                            RouterCycle(t),
                        );
                    }
                }
                for _ in 0..rng.index(2) {
                    mem.pop(rng.index(vcs));
                }
                let mask = rng.next_u64_raw() | 1;
                cs.clear();
                offered += tdm.select_where(mem, &qos, &Siabp, RouterCycle(t), cs, |vc| {
                    mask & (1 << vc) != 0
                });
            }
            offered
        };
        drive(&mut tdm, &mut mem, &mut tdm_cs, &mut rng, 200);
        let mut offered = 0;
        let allocs = allocations_in(|| {
            offered = drive(&mut tdm, &mut mem, &mut tdm_cs, &mut rng, 500);
        });
        assert!(offered > 0, "TDM(backfill={backfill}) offered nothing");
        assert_eq!(
            allocs, 0,
            "TDM(backfill={backfill}) select allocated {allocs} times in steady state"
        );
    }

    // --- Full router step ----------------------------------------------
    // CBR traffic below saturation: after a warm-up every queue, VC
    // buffer and scratch vector has seen its steady-state high-water
    // mark.  (Near saturation the elastic NIC queues legitimately keep
    // growing, so that regime cannot be allocation-free.)  These routers
    // have no FaultPlan installed, so this also pins the contract that
    // compiling the fault machinery in costs nothing when disabled.
    for kind in [
        ArbiterKind::Coa,
        ArbiterKind::Wfa,
        ArbiterKind::Islip { iterations: 2 },
        ArbiterKind::MwmExact,
        ArbiterKind::FrameFair { frame: 64 },
        ArbiterKind::CrosspointQueued { cap: 16 },
    ] {
        let cfg = RouterConfig::default();
        let mut rng = SimRng::seed_from_u64(5);
        let workload = CbrMixBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
            .target_load(0.4)
            .build(&mut rng);
        let arbiter_ports = cfg.ports;
        let mut router = MmrRouter::new(
            cfg,
            workload,
            kind.instantiate(arbiter_ports),
            Box::new(Siabp),
            5,
        );
        let mut t = 0u64;
        for _ in 0..5_000 {
            router.step(FlitCycle(t), false);
            t += 1;
        }
        let allocs = allocations_in(|| {
            for _ in 0..2_000 {
                router.step(FlitCycle(t), false);
                t += 1;
            }
        });
        assert_eq!(
            allocs,
            0,
            "{}: router step allocated {allocs} times in steady state",
            kind.label()
        );
    }

    // --- Drained MPEG-2 VBR router ---------------------------------------
    // Smooth-Rate video streams, one GOP each, start at random points of
    // a GOP time, so the warm-up ends before most of them have closed a
    // frame.  Their first frame ends, and with them the first writes to
    // their jitter trackers, land in the measured region, which runs
    // until the router is drained: frame storage must be in place from
    // construction, not grown on a stream's first frame.
    {
        let cfg = RouterConfig::default();
        let mut rng = SimRng::seed_from_u64(5);
        let workload = VbrMixBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
            .target_load(0.5)
            .gops(1)
            .injection(VbrInjection::SmoothRate)
            .build(&mut rng);
        let streams = workload.len() as u64;
        let arbiter_ports = cfg.ports;
        let mut router = MmrRouter::new(
            cfg,
            workload,
            ArbiterKind::Coa.instantiate(arbiter_ports),
            Box::new(Siabp),
            5,
        );
        let mut t = advance(&mut router, 0, 5_000, true);
        let warm_frames = router.summary().metrics.frames_delivered;
        assert!(
            2 * warm_frames < streams,
            "warm-up closed {warm_frames} frames over {streams} streams"
        );
        router.on_measurement_start(FlitCycle(t));
        let allocs = allocations_in(|| {
            while !router.drained() {
                t = advance(&mut router, t, 10_000, true);
            }
        });
        // One GOP is 15 frames (`IBBPBBPBBPBBPBB`).
        let frames = router.summary().metrics.frames_delivered;
        assert_eq!(
            warm_frames + frames,
            15 * streams,
            "every stream's GOP must close by the time the router drains"
        );
        assert_eq!(
            allocs, 0,
            "drained VBR router step allocated {allocs} times over {frames} frames"
        );
    }

    // --- Router step with fault machinery armed ------------------------
    // A FaultPlan is installed (so every fault path — begin_cycle, the
    // credit watchdog, the pending-duplicate drain — runs each cycle) but
    // all its events land during warm-up: the measured steady state must
    // still make zero allocator calls.  All fault state is pre-sized per
    // port/connection at install time.
    {
        let cfg = RouterConfig::default();
        let mut rng = SimRng::seed_from_u64(5);
        let workload = CbrMixBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
            .target_load(0.4)
            .build(&mut rng);
        let arbiter_ports = cfg.ports;
        let mut router = MmrRouter::new(
            cfg,
            workload,
            ArbiterKind::Coa.instantiate(arbiter_ports),
            Box::new(Siabp),
            5,
        );
        let conns = router.connections().len();
        let mut events = Vec::new();
        for c in 0..conns {
            events.push(FaultEvent {
                at: 1_000 + c as u64 * 7,
                kind: FaultKind::DropCredit { conn: c },
            });
            events.push(FaultEvent {
                at: 2_000 + c as u64 * 7,
                kind: FaultKind::DuplicateCredit { conn: c },
            });
        }
        for input in 0..arbiter_ports {
            events.push(FaultEvent {
                at: 3_000 + input as u64,
                kind: FaultKind::CorruptFlit { input },
            });
        }
        router.set_faults(FaultPlan::from_events(events), FaultProfile::default());
        let mut t = 0u64;
        for _ in 0..5_000 {
            router.step(FlitCycle(t), false);
            t += 1;
        }
        assert!(
            router.fault_report().events_fired > 0,
            "warm-up must consume the fault plan"
        );
        let allocs = allocations_in(|| {
            for _ in 0..2_000 {
                router.step(FlitCycle(t), false);
                t += 1;
            }
        });
        assert_eq!(
            allocs, 0,
            "armed fault machinery allocated {allocs} times in steady state"
        );
    }

    // --- Router step with telemetry armed -------------------------------
    // Arming telemetry allocates once (counter registry, profiler table,
    // flight-recorder ring, snapshot ring); after that, every hook in the
    // hot path — counter adds, stage profiling, trace recording, window
    // rolls — must be allocation-free.  The recorder ring wraps and the
    // snapshot window rolls several times inside the measured region, so
    // both reuse paths are exercised.
    {
        let cfg = RouterConfig::default();
        let mut rng = SimRng::seed_from_u64(5);
        let workload = CbrMixBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
            .target_load(0.4)
            .build(&mut rng);
        let arbiter_ports = cfg.ports;
        let mut router = MmrRouter::new(
            cfg,
            workload,
            ArbiterKind::Coa.instantiate(arbiter_ports),
            Box::new(Siabp),
            5,
        );
        router.set_telemetry(TelemetryConfig {
            trace_capacity: 512,
            snapshot_interval: 250,
            ..TelemetryConfig::default()
        });
        let mut t = 0u64;
        for _ in 0..5_000 {
            router.step(FlitCycle(t), false);
            t += 1;
        }
        let allocs = allocations_in(|| {
            for _ in 0..2_000 {
                router.step(FlitCycle(t), false);
                t += 1;
            }
        });
        assert_eq!(
            allocs, 0,
            "armed telemetry allocated {allocs} times in steady state"
        );
        let recorder = router.telemetry().recorder();
        assert!(
            recorder.recorded() > recorder.capacity() as u64,
            "measured region must wrap the trace ring"
        );
        let report = router.telemetry_report();
        assert!(
            report.windows.len() >= 8,
            "measured region must roll snapshot windows"
        );

        // The observatory is on by default, so the allocation-free region
        // above already covered its per-delivery histogram and SLO hooks;
        // confirm it actually observed traffic rather than sitting idle.
        let obs = report
            .observatory
            .as_ref()
            .expect("default telemetry config arms the observatory");
        assert!(
            obs.classes.iter().map(|c| c.delay.count()).sum::<u64>() > 0,
            "observatory must have recorded deliveries in the measured region"
        );
    }

    // --- Prometheus exposition ------------------------------------------
    // The one exposition writer renders an armed experiment's report.
    // Into a warm buffer it is allocation-free: one sizing pass, then
    // clear + rewrite must never touch the heap.
    {
        use mmr_core::config::{RunLength, SimConfig, TelemetrySpec};
        use mmr_core::experiment::run_experiment;
        let cfg = SimConfig {
            run: RunLength::Cycles(6_000),
            ..SimConfig::default()
        }
        .with_telemetry(TelemetrySpec::default());
        let result = run_experiment(&cfg);
        let mut buf = String::new();
        result.prometheus_into(&mut buf);
        assert!(buf.contains("# TYPE mmr_delay_seconds histogram"));
        let expected = buf.clone();
        let allocs = allocations_in(|| {
            buf.clear();
            result.prometheus_into(&mut buf);
        });
        assert_eq!(
            allocs, 0,
            "exposition into a warm buffer allocated {allocs} times"
        );
        assert_eq!(buf, expected, "warm-buffer rewrite must be byte-identical");
    }

    // --- Fabric: sharded mesh steady state ------------------------------
    // A 4×4 mesh of routers driven through the fabric's inline
    // (workers = 1) epoch path: mailbox double-buffering is pointer
    // swaps, a swapped-in inbox is consumed in place and the tails
    // one-cycle epochs leave are carried into reused deques, per-node
    // event buffers hold their high-water capacity.  After a warm-up that routes multi-hop traffic through
    // every lane, stepping the whole 16-router fabric must make zero
    // allocator calls.  (Worker threads have their own stacks and are
    // not measurable with a thread-local counter, which is why the
    // steady-state contract is pinned on the inline path; the parallel
    // path runs the same per-node code on pre-split slices.)
    {
        use mmr_core::config::{SimConfig, WorkloadSpec};
        use mmr_core::experiment::{build_fabric, build_fabric_workload};
        use mmr_core::workload_lang::{compile_committed, Fidelity};
        let cfg = compile_committed("fabric_mesh", Fidelity::Quick)
            .expect("fabric_mesh pack compiles")
            .sweep
            .configs()
            .remove(0);
        let spec = cfg.fabric.expect("fabric scenario carries a spec");
        let workload = build_fabric_workload(&cfg, &spec);
        let mut fabric = build_fabric(&cfg, &spec, workload);
        let mut t = 0u64;
        for _ in 0..8_000 {
            fabric.step(FlitCycle(t), false);
            t += 1;
        }
        let before = fabric.summary().delivered_flits;
        let allocs = allocations_in(|| {
            for _ in 0..1_500 {
                fabric.step(FlitCycle(t), false);
                t += 1;
            }
        });
        let delivered = fabric.summary().delivered_flits - before;
        assert!(
            delivered > 0,
            "fabric measured region must deliver traffic, delivered {delivered}"
        );
        assert_eq!(
            allocs, 0,
            "fabric step allocated {allocs} times in steady state"
        );

        // Opening the measurement window resets the collector in place —
        // no second collector is built and none is freed.
        let allocs = allocations_in(|| fabric.on_measurement_start(FlitCycle(t)));
        assert_eq!(
            allocs, 0,
            "the fabric's measurement reset allocated {allocs} times"
        );
        assert_eq!(fabric.summary().delivered_flits, 0);

        // The parallel path allocates per call (chunk views, the thread
        // scope and its helper), never per epoch: on twin fabrics a run
        // four times as long makes exactly as many allocator calls on
        // the calling thread.  A fresh fabric also grows its buffers, so
        // the load is low enough and `n` long enough that every buffer
        // the calling thread touches is at its high-water mark before
        // cycle `n` (measured: the count is flat from 8 000 to 48 000
        // cycles, on one core and on two).
        let cfg = SimConfig {
            workload: WorkloadSpec::cbr(0.3),
            ..cfg
        };
        let (warmup, n) = (1_000u64, 10_000u64);
        let allocs_over = |bound: u64| {
            let workload = build_fabric_workload(&cfg, &spec);
            let mut twin = build_fabric(&cfg, &spec, workload);
            let allocs = allocations_in(|| {
                twin.run_parallel(warmup, bound, 2, false);
            });
            assert!(twin.summary().delivered_flits > 0);
            allocs
        };
        let (short, long) = (allocs_over(n), allocs_over(4 * n));
        assert_eq!(
            short,
            long,
            "run_parallel allocated {short} times over {n} cycles but {long} over {}",
            4 * n
        );
    }

    // --- Measurement reset ------------------------------------------------
    // `MetricsCollector::reset` runs inside every timed run, at the
    // warm-up boundary.  At the 16-router mesh's scale — 830 connections,
    // every fifth of them video, so the class, frame and aggregate jitter
    // histograms and the per-connection jitter sums all hold samples — it
    // must reuse every buffer it has.
    {
        use mmr_core::router::metrics::{MetricsCollector, ALL_CLASSES};
        use mmr_core::router::output::Delivery;
        use mmr_core::traffic::flit::Flit;
        let conns = 830u32;
        let video = |conn: u32| conn.is_multiple_of(5);
        let collector = || MetricsCollector::new(conns as usize, TimeBase::default());
        let mut metrics = collector();
        metrics.set_delay_bound(Some(900));
        for i in 0..20_000u64 {
            let conn = ConnectionId((i * 7 % conns as u64) as u32);
            let generated = RouterCycle(i * 3);
            // Each flit of a video connection closes a frame.
            let flit = if video(conn.0) {
                Flit::vbr(conn, i, generated, (i / conns as u64) as u32, true)
            } else {
                Flit::cbr(conn, i, generated)
            };
            let class = ALL_CLASSES[conn.0 as usize % ALL_CLASSES.len()];
            metrics.record_generated(class);
            metrics.record_delivery(
                &Delivery {
                    flit,
                    output: 0,
                    delivered_at: RouterCycle(i * 3 + 64 + i % 1_500),
                },
                class,
            );
        }
        let full = metrics.report();
        assert!(full.frames_delivered > 0 && full.qos_violations > 0);
        assert!(
            full.max_frame_jitter_us > 0.0,
            "jitter trackers must hold samples"
        );
        let allocs = allocations_in(|| metrics.reset());
        assert_eq!(
            allocs, 0,
            "MetricsCollector::reset allocated {allocs} times"
        );
        assert_eq!(metrics.report(), collector().report());
        assert!(metrics.delivered_per_connection().iter().all(|&d| d == 0));
    }

    // --- Per-connection storage ------------------------------------------
    // No histogram is allocated per connection: the metrics collector and
    // armed telemetry (observatory included) make as many allocator calls
    // for 4n connections as for n, so set-up never frees or faults in a
    // heap of small per-connection blocks.
    {
        use mmr_core::router::metrics::{MetricsCollector, ALL_CLASSES};
        use mmr_core::router::telemetry::RouterTelemetry;
        let calls = |n: usize| {
            let classes: Vec<_> = (0..n).map(|c| ALL_CLASSES[c % ALL_CLASSES.len()]).collect();
            (
                allocations_in(|| drop(MetricsCollector::new(n, TimeBase::default()))),
                allocations_in(|| {
                    drop(RouterTelemetry::armed(TelemetryConfig::default(), &classes))
                }),
            )
        };
        let (n, four_n) = (calls(53), calls(4 * 53));
        assert_eq!(
            n, four_n,
            "(collector, telemetry) allocator calls grew with the connection count"
        );
        // The injection calendar is a fixed number of blocks too: its
        // timing wheel keeps intrusive lists, not a `Vec` per bucket.
        let calendar = |n: u32| {
            let sources = cbr_sources(n);
            allocations_in(|| drop(InjectionCalendar::from_sources(&sources)))
        };
        let (small, large) = (calendar(53), calendar(4_096));
        assert_eq!(
            small, large,
            "InjectionCalendar::from_sources allocated {small} times for 53 sources, {large} for 4 096"
        );
    }

    // --- Injection calendar past the wheel -------------------------------
    // 64 Kbps and 1.54 Mbps CBR sources come due beyond the wheel's span,
    // so per-flit-cycle drains walk the far list and move its entries into
    // the wheel, and drains a million router cycles apart jump past the
    // whole span.  With
    // the flit buffer grown by one such round, another makes no
    // allocator call.
    {
        let mut sources = cbr_sources(300);
        let mut cal = InjectionCalendar::from_sources(&sources);
        let (mut buf, mut now) = (Vec::new(), 0u64);
        // Flits drained per rate (64 Kbps, 1.54 Mbps, 55 Mbps).
        let mut seen = [0u64; 3];
        let mut round = |cal: &mut InjectionCalendar, sources: &mut [_], seen: &mut [u64; 3]| {
            for _ in 0..2_000 {
                now += 64;
                cal.drain_due(sources, RouterCycle(now), &mut buf, |i, _| seen[i % 3] += 1);
            }
            for _ in 0..3 {
                now += 1_000_000;
                cal.drain_due(sources, RouterCycle(now), &mut buf, |i, _| seen[i % 3] += 1);
            }
        };
        round(&mut cal, &mut sources, &mut seen);
        let warm = seen;
        let allocs = allocations_in(|| round(&mut cal, &mut sources, &mut seen));
        assert_eq!(
            allocs, 0,
            "far-list walks and span jumps allocated {allocs} times"
        );
        assert!(
            (0..3).all(|r| seen[r] > warm[r]),
            "every rate must inject in the measured round: {warm:?} -> {seen:?}"
        );
    }

    // --- Scenario-pack steady state (Mix + ramp + churn) -----------------
    // The workload language compiles onto MixWorkloadBuilder: staged
    // activations and churn wrap sources in ExpiringSource and offset
    // phases, but all of that is decided at build time.  With every ramp
    // breakpoint and the whole churn window inside warm-up, the measured
    // steady state — departed sources reading as exhausted, late arrivals
    // active, the usual queues at their high-water marks — must make zero
    // allocator calls per step.
    {
        use mmr_core::traffic::connection::TrafficClass;
        use mmr_core::traffic::workload::MixWorkloadBuilder;
        let cfg = RouterConfig::default();
        let mut rng = SimRng::seed_from_u64(5);
        let workload = MixWorkloadBuilder::new(cfg.ports, cfg.time, RoundConfig::default())
            .target_load(0.4)
            .classes(vec![
                (TrafficClass::CbrLow, Bandwidth::kbps(64.0), 2.0),
                (TrafficClass::CbrMedium, Bandwidth::mbps(1.54), 2.0),
                (TrafficClass::CbrHigh, Bandwidth::mbps(6.0), 1.0),
            ])
            .ramp(vec![(0, 0.5), (1_000, 1.0)])
            .churn(500, 3_500, 0.25, 0.2)
            .build(&mut rng);
        assert!(
            workload.active_at(0) < workload.active_at(2_000),
            "ramp must stage activations inside warm-up"
        );
        let arbiter_ports = cfg.ports;
        let mut router = MmrRouter::new(
            cfg,
            workload,
            ArbiterKind::Coa.instantiate(arbiter_ports),
            Box::new(Siabp),
            5,
        );
        let mut t = 0u64;
        for _ in 0..6_000 {
            router.step(FlitCycle(t), false);
            t += 1;
        }
        let allocs = allocations_in(|| {
            for _ in 0..2_000 {
                router.step(FlitCycle(t), false);
                t += 1;
            }
        });
        assert_eq!(
            allocs, 0,
            "pack (Mix+ramp+churn) router step allocated {allocs} times in steady state"
        );
    }
}
