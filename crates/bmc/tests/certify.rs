//! End-to-end UNSAT certification through the checker and engine layers:
//! certified runs return the identical outcome plus a checked certificate,
//! and every tampering or misuse path degrades to FAILED(certification) —
//! never PASS.

use autocc_bmc::{
    Bmc, BmcEngine, CancelToken, CertificateStatus, CheckConfig, CheckEngine, CheckOutcome,
    CheckSpec, EngineOutcome, FailureReason, Falsifier, KInductionEngine,
};
use autocc_hdl::{Bv, Module, ModuleBuilder};
use autocc_sat::{Lit, ProofStep, Var};

/// A 3-bit free-running counter with `small = count < limit`.
fn counter(limit: u64) -> Module {
    let mut b = ModuleBuilder::new("counter");
    let c = b.reg("count", 3, Bv::zero(3));
    let one = b.lit(3, 1);
    let next = b.add(c, one);
    b.set_next(c, next);
    let lim = b.lit(4, limit);
    let cz = b.zext(c, 4);
    let below = b.ult(cz, lim);
    b.output("small", below);
    b.build()
}

/// A register that holds its value forever: `zero = (r == 0)` is
/// inductive at k = 1, so k-induction proves it outright.
fn latch() -> Module {
    let mut b = ModuleBuilder::new("latch");
    let r = b.reg("r", 4, Bv::zero(4));
    b.set_next(r, r);
    let z = b.lit(4, 0);
    let eq = b.eq(r, z);
    b.output("zero", eq);
    b.build()
}

fn spec<'m>(m: &'m Module, out: &str) -> CheckSpec<'m> {
    CheckSpec::new(m).property(out, m.output_node(out).unwrap())
}

#[test]
fn certified_bounded_proof_matches_uncertified_and_carries_a_hash() {
    // count < 8 is a tautology for a 3-bit counter: every depth is UNSAT.
    let m = counter(8);
    let base = CheckConfig::default().depth(12).no_timeout();
    let plain = BmcEngine.check(&spec(&m, "small"), &base, &CancelToken::new());
    let cert = BmcEngine.check(
        &spec(&m, "small"),
        &base.clone().certify(true),
        &CancelToken::new(),
    );
    match (&plain.outcome, &cert.outcome) {
        (EngineOutcome::BoundReached { depth: a }, EngineOutcome::BoundReached { depth: b }) => {
            assert_eq!(a, b, "certification must not change the verdict")
        }
        other => panic!("expected matching bounded proofs, got {other:?}"),
    }
    assert_eq!(
        plain.counters.conflicts, cert.counters.conflicts,
        "proof logging must not alter the search"
    );
    assert_eq!(plain.certificate, CertificateStatus::Uncertified);
    assert!(
        cert.certificate.is_certified(),
        "certified bounded proof carries a certificate: {:?}",
        cert.certificate
    );
}

#[test]
fn certified_kinduction_proof_combines_base_and_step_certificates() {
    let m = latch();
    let config = CheckConfig::default().depth(8).no_timeout().certify(true);
    let run = KInductionEngine.check(&spec(&m, "zero"), &config, &CancelToken::new());
    match run.outcome {
        EngineOutcome::Proved { induction_depth } => assert_eq!(induction_depth, 1),
        other => panic!("expected full proof, got {other:?}"),
    }
    assert!(run.certificate.is_certified(), "{:?}", run.certificate);
}

#[test]
fn certified_cex_is_the_replayed_trace() {
    // count < 5 fails at depth 6; the trace is the SAT-side certificate.
    let m = counter(5);
    let base = CheckConfig::default().depth(16).no_timeout();
    let plain = BmcEngine.check(&spec(&m, "small"), &base, &CancelToken::new());
    let cert = BmcEngine.check(
        &spec(&m, "small"),
        &base.clone().certify(true),
        &CancelToken::new(),
    );
    match (&plain.outcome, &cert.outcome) {
        (EngineOutcome::Cex(a), EngineOutcome::Cex(b)) => {
            assert_eq!(a.depth, b.depth);
            assert_eq!(a.property, b.property);
        }
        other => panic!("expected matching counterexamples, got {other:?}"),
    }
    assert_eq!(plain.certificate, CertificateStatus::Uncertified);
    assert!(cert.certificate.is_certified());
    assert_eq!(
        cert.certificate.hash(),
        match &cert.outcome {
            EngineOutcome::Cex(cex) => Some(autocc_bmc::cex_hash(cex)),
            _ => None,
        },
        "cex certificate hash is the trace hash"
    );
}

#[test]
fn tampered_proof_stream_degrades_to_failed_certification() {
    let m = counter(8);
    let mut bmc = Bmc::new(&m);
    bmc.add_property("small", m.output_node("small").unwrap());
    let config = CheckConfig::default().depth(2).no_timeout().certify(true);
    match bmc.check(&config) {
        CheckOutcome::BoundReached { depth: 2 } => {}
        other => panic!("expected certified bound, got {other:?}"),
    }
    // Inject a clause no resolution chain derives (a unit over a fresh
    // variable): the next certification pass must reject the transcript.
    bmc.inject_proof_step_for_test(ProofStep::Add(
        vec![Lit::new(Var::from_index(4000), true)],
        Vec::new(),
    ));
    match bmc.check(&config.clone().depth(4)) {
        CheckOutcome::Failed(failure) => {
            assert_eq!(failure.reason, FailureReason::Certification);
            assert!(
                failure.detail.contains("rejected"),
                "diagnostic names the rejection: {}",
                failure.detail
            );
        }
        other => panic!("tampered proof must fail certification, got {other:?}"),
    }
}

#[test]
fn late_certify_request_fails_closed() {
    // Asking for certification after the search already ran cannot be
    // honoured (the transcript is incomplete); it must fail, not pass.
    let m = counter(8);
    let mut bmc = Bmc::new(&m);
    bmc.add_property("small", m.output_node("small").unwrap());
    let plain = CheckConfig::default().depth(2).no_timeout();
    assert!(matches!(
        bmc.check(&plain),
        CheckOutcome::BoundReached { depth: 2 }
    ));
    match bmc.check(&plain.certify(true).depth(4)) {
        CheckOutcome::Failed(failure) => {
            assert_eq!(failure.reason, FailureReason::Certification)
        }
        other => panic!("late certify must fail closed, got {other:?}"),
    }
}

#[test]
fn falsifier_demotion_drops_the_certificate() {
    let m = counter(8);
    let config = CheckConfig::default().depth(4).no_timeout().certify(true);
    let run = Falsifier(BmcEngine).check(&spec(&m, "small"), &config, &CancelToken::new());
    assert!(matches!(run.outcome, EngineOutcome::Exhausted { depth: 4 }));
    assert_eq!(
        run.certificate,
        CertificateStatus::Uncertified,
        "an inconclusive (demoted) outcome carries no certificate"
    );
}

// ---------------------------------------------------------------------
// Paper miters: every lemma checks along its hints
// ---------------------------------------------------------------------

use autocc_bench::maple_testbench;
use autocc_core::{CheckReport, FpvTestbench, FtSpec};
use autocc_duts::demo::config_device;
use autocc_duts::maple::MapleConfig;
use autocc_telemetry::{ProfileRecorder, Telemetry};
use std::sync::Arc;

/// The `config-device-fixed` testbench: the demo device with a working
/// flush, strengthened so k-induction closes a full proof.
fn config_device_fixed(dut: &Module) -> FpvTestbench {
    FtSpec::new(dut)
        .flush_done(|b, _ua, _ub| b.input_node("flush").expect("common flush"))
        .state_equality_invariants()
        .generate()
}

/// Runs `run` under a certifying, profiled config and returns the report
/// with the `(proof_steps, rup_fallbacks)` gauges of every
/// `certify-unsat` span.
fn certified_run(
    depth: usize,
    run: impl FnOnce(&CheckConfig) -> CheckReport,
) -> (CheckReport, Vec<(u64, u64)>) {
    let recorder = Arc::new(ProfileRecorder::new());
    let config = CheckConfig::default()
        .depth(depth)
        .no_timeout()
        .certify(true)
        .telemetry(Telemetry::root(recorder.clone(), "certify-test"));
    let report = run(&config);
    let gauge = |span: &autocc_telemetry::ProfileSpan, key: &str| {
        span.gauges
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("certify-unsat span lacks {key}"))
    };
    let spans = recorder
        .profile()
        .spans
        .iter()
        .filter(|s| s.name == "certify-unsat")
        .map(|s| (gauge(s, "proof_steps"), gauge(s, "rup_fallbacks")))
        .collect();
    (report, spans)
}

fn assert_hinted(what: &str, spans: &[(u64, u64)]) {
    assert!(!spans.is_empty(), "{what}: no UNSAT solve was certified");
    assert!(
        spans.iter().any(|&(steps, _)| steps > 0),
        "{what}: no proof steps were checked"
    );
    for &(steps, fallbacks) in spans {
        assert_eq!(
            fallbacks, 0,
            "{what}: {fallbacks} of the lemmas in {steps} steps needed full RUP"
        );
    }
}

#[test]
fn config_device_fixed_proof_checks_every_lemma_along_its_hints() {
    let dut = config_device(true);
    let tb = config_device_fixed(&dut);
    let (report, spans) = certified_run(8, |c| tb.prove_portfolio(c));
    assert!(
        report.certificate.is_certified(),
        "{:?} / {:?}",
        report.outcome,
        report.certificate
    );
    assert_hinted("config-device-fixed prove", &spans);
}

#[test]
fn maple_all_fixed_bounded_check_checks_every_lemma_along_its_hints() {
    let tb = maple_testbench(&MapleConfig::all_fixed());
    let (report, spans) = certified_run(6, |c| tb.check_portfolio(c));
    assert!(
        report.certificate.is_certified(),
        "{:?} / {:?}",
        report.outcome,
        report.certificate
    );
    assert_hinted("MAPLE all-fixed check", &spans);
}

/// Certificates hash step tags and literals only, never hints. The
/// pinned value is the one builds without hint checking produce for
/// this check, so certified journals they wrote keep resuming certified.
#[test]
fn certificate_hash_is_pinned() {
    let dut = config_device(true);
    let tb = config_device_fixed(&dut);
    let (report, _) = certified_run(8, |c| tb.prove_portfolio(c));
    assert_eq!(
        report.certificate.hash().map(|h| format!("{h:016x}")),
        Some("232e99d6efbab4e4".to_string()),
    );
}
