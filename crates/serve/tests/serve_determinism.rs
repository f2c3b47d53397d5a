//! Property test for the campaign service's headline invariant: for an
//! identical submit sequence, the drained report is byte-identical to an
//! uninterrupted direct-queue reference — whatever transport fault hits
//! each submit (torn request frame, reply lost before the ack, clean
//! runs), and however many times the client retries. Every submit lands
//! in the journal exactly once.

use ffsim_core::WrongPathMode;
use ffsim_driver::{
    report, Enqueued, Job, JobQueue, QueueConfig, RetryPolicy, TelemetryConfig, WorkloadFn,
};
use ffsim_emu::Memory;
use ffsim_isa::{Asm, Reg};
use ffsim_serve::{
    CampaignServer, Conn, Connector, FaultyTransport, JobFactory, JobSpec, ServeClient,
    ServeConfig, SubmitOutcome,
};
use ffsim_uarch::CoreConfig;
use proptest::collection::vec;
use proptest::prelude::*;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn workload(trips: i64) -> WorkloadFn {
    Arc::new(move || {
        let i = Reg::new(1);
        let mut a = Asm::new();
        a.li(i, trips);
        a.label("loop");
        a.addi(i, i, -1);
        a.bnez(i, "loop");
        a.halt();
        Ok((a.assemble()?, Memory::new()))
    })
}

fn factory() -> JobFactory {
    Arc::new(|spec: &JobSpec| {
        if spec.workload != "countdown" {
            return Err(format!("unknown workload `{}`", spec.workload));
        }
        Ok(Job::new(
            &spec.id,
            WrongPathMode::WrongPathEmulation,
            workload(spec.arg),
        )
        .with_core(CoreConfig::tiny_for_tests()))
    })
}

fn qcfg(dir: &Path, workers: usize) -> QueueConfig {
    QueueConfig {
        workers,
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        },
        default_timeout: Some(Duration::from_secs(60)),
        compact_every: 5,
        telemetry: TelemetryConfig::default(),
        ..QueueConfig::new(dir)
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// The fixed two-campaign fixture; only the per-job trip counts vary.
fn specs(trips: &[i64]) -> Vec<(&'static str, JobSpec)> {
    let spec = |id: String, trips: i64| JobSpec {
        id,
        mode: "wpemul".into(),
        workload: "countdown".into(),
        arg: trips,
    };
    trips
        .iter()
        .enumerate()
        .map(|(index, &t)| {
            let campaign = if index % 2 == 0 { "alpha" } else { "beta" };
            (campaign, spec(format!("{campaign}/j{index}"), t))
        })
        .collect()
}

/// The uninterrupted reference: the same jobs through the queue API
/// directly, no wire, no faults.
fn reference_report(name: &str, trips: &[i64], workers: usize) -> String {
    let dir = tmp_dir(name);
    let queue = JobQueue::open(qcfg(&dir, workers)).expect("queue opens");
    queue.register("alpha");
    queue.register("beta");
    let build = factory();
    for (campaign, spec) in specs(trips) {
        let job = build(&spec).expect("factory");
        assert_eq!(
            queue.enqueue(campaign, job).expect("enqueue"),
            Enqueued::Accepted
        );
    }
    let outcome = queue.drain().expect("reference drain");
    assert_eq!(outcome.records.len(), trips.len());
    report::render(&outcome.records)
}

/// A transport fault to inject into one submit's *first* connection;
/// every reconnect after it is clean.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// No fault: the control case.
    None,
    /// Break the pipe after `n` written bytes: the request frame tears
    /// mid-flight and the server never sees the submit.
    CutWrite(u64),
    /// Reset the connection after `n` read bytes: the request was
    /// applied but the ack is lost (n = 0 is disconnect-before-ack).
    CutRead(u64),
}

fn fault_from(kind: u8, offset: u64) -> Fault {
    match kind {
        0 => Fault::None,
        // The submit request frame is 17 header + ~200 payload bytes, so
        // 1..=60 always tears mid-frame.
        1 => Fault::CutWrite(1 + offset % 60),
        // The reply frame header is 17 bytes; 0..17 loses the ack
        // mid-header (or before any byte of it).
        _ => Fault::CutRead(offset % 17),
    }
}

/// A client whose first connection carries `fault`; reconnects are clean.
fn faulty_client(addr: &str, fault: Fault) -> ServeClient {
    let addr = addr.to_string();
    let mut first = true;
    let connector: Connector = Box::new(move || {
        let stream = TcpStream::connect(&addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        let arm = std::mem::replace(&mut first, false);
        Ok(match fault {
            Fault::CutWrite(n) if arm => {
                Box::new(FaultyTransport::new(stream).cut_write_after(n)) as Box<dyn Conn>
            }
            Fault::CutRead(n) if arm => {
                Box::new(FaultyTransport::new(stream).cut_read_after(n)) as Box<dyn Conn>
            }
            _ => Box::new(stream) as Box<dyn Conn>,
        })
    });
    ServeClient::new(
        connector,
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        },
    )
}

/// Runs the wire path: one faulted submit round, one clean duplicate
/// round, graceful shutdown. Returns (final report, committed count).
fn serve_round(name: &str, trips: &[i64], faults: &[Fault], workers: usize) -> (String, usize) {
    let dir = tmp_dir(name);
    let queue = JobQueue::open(qcfg(&dir, workers)).expect("queue opens");
    let server = CampaignServer::new(queue, factory(), ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let outcome = std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(listener));

        let mut control = faulty_client(&addr, Fault::None);
        control.register("alpha", None).expect("register");
        control.register("beta", None).expect("register");

        // Round one: each submit through its own connection with its
        // drawn fault. Whatever happens on the wire, the submit must
        // land exactly once.
        for (index, (campaign, spec)) in specs(trips).into_iter().enumerate() {
            let mut client = faulty_client(&addr, faults[index]);
            let (outcome, _) = client.submit(campaign, spec).expect("faulted submit");
            assert_ne!(outcome, SubmitOutcome::Poisoned);
        }

        // Round two: a full clean duplicate pass — the dedup map (or the
        // journal, for anything already terminal) must absorb every one.
        for (campaign, spec) in specs(trips) {
            let (outcome, _) = control.submit(campaign, spec).expect("duplicate submit");
            assert_ne!(outcome, SubmitOutcome::Poisoned);
        }

        control.shutdown().expect("shutdown");
        running.join().expect("no panic").expect("run")
    });

    let committed = server.queue().stats().committed;
    (outcome.report, committed)
}

proptest! {
    #[test]
    fn faulted_submits_land_exactly_once_with_identical_report(
        trips in vec(10i64..40, 4..5),
        draws in vec((0u8..3, 0u64..60), 4..5),
        workers in 1usize..3,
    ) {
        let faults: Vec<Fault> = draws.iter().map(|&(k, o)| fault_from(k, o)).collect();
        let reference = reference_report("sprop_ref", &trips, workers);
        let (served, committed) = serve_round("sprop_served", &trips, &faults, workers);
        prop_assert_eq!(committed, trips.len(), "exactly-once: {:?}", faults);
        prop_assert_eq!(served, reference, "byte-identity under {:?}", faults);
    }
}

#[test]
fn harness_smoke_every_fault_kind() {
    // One fixed case per fault kind outside the proptest loop, so a
    // failure gives a readable panic rather than a generated case id:
    // torn request, disconnect-before-ack, ack lost mid-header, clean.
    let trips = [12i64, 18, 24, 30];
    let faults = [
        Fault::CutWrite(9),
        Fault::CutRead(0),
        Fault::CutRead(11),
        Fault::None,
    ];
    let reference = reference_report("sprop_smoke_ref", &trips, 2);
    let (served, committed) = serve_round("sprop_smoke_served", &trips, &faults, 2);
    assert_eq!(committed, trips.len());
    assert_eq!(served, reference);
}
