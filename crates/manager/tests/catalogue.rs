//! The cluster catalogue's contract: every entry deploys a pinned target,
//! and no spec string — however malformed — panics or builds nonsense.

use proptest::prelude::*;

use firesim_core::{Cycle, SimError};
use firesim_manager::catalogue::{self, Dims};
use firesim_manager::{run_partitioned, PartitionConfig};

/// Horizon of the digest pins: ten 6 400-cycle windows.
const PIN_CYCLES: u64 = 64_000;

/// Each entry's combined digest after [`PIN_CYCLES`] on one worker. The
/// values are those of the per-binary builders the catalogue replaced,
/// so a change here is a change to a shared target.
#[test]
fn entries_deploy_their_pinned_targets() {
    for (spec, agents, digest) in [
        ("quickstart", 5, 0x688c_cf94_d8b1_7991u64),
        ("fig8,nodes=4", 5, 0x658d_c42c_f0eb_4f60),
        ("two_racks", 9, 0xfe8e_34a0_2780_c2bb),
        (
            "datacenter,dc=2x2x4,requests=8,qps=200000",
            23,
            0x6b22_ba92_6da4_e9b1,
        ),
    ] {
        let cfg = PartitionConfig::new(1, Cycle::new(PIN_CYCLES), spec.to_owned());
        let run = run_partitioned(catalogue::build, &cfg)
            .unwrap_or_else(|report| panic!("{spec}: {report}"));
        assert_eq!(run.digests.len(), agents, "{spec}: agent count");
        assert_eq!(
            run.combined_digest, digest,
            "{spec}: combined digest {:#018x}",
            run.combined_digest
        );
    }
}

/// The engine's direct digests equal the digests of a full checkpoint,
/// agent by agent, after a run that leaves traffic in flight.
#[test]
fn direct_digests_equal_checkpoint_digests() {
    for spec in ["quickstart", "two_racks"] {
        let (topo, config) = catalogue::build(spec).expect("entry builds");
        let mut sim = topo.build(config).expect("deploys");
        sim.run_for(Cycle::new(PIN_CYCLES)).expect("runs");
        let direct = sim.engine_mut().agent_digests().expect("digests");
        let via_checkpoint = sim.checkpoint().expect("checkpoints").agent_digests();
        assert_eq!(direct, via_checkpoint, "{spec}");
        assert_eq!(direct.len(), sim.engine_mut().agent_count(), "{spec}");
    }
}

/// The paper's datacenter on two engine workers: the packer keeps each
/// rack's ToR with its blades, so at most 2 % of the links cross workers.
#[test]
fn datacenter_on_two_workers_cuts_few_links() {
    let (topo, config) = catalogue::build("datacenter").expect("entry builds");
    let mut sim = topo.build(config).expect("deploys");
    let engine = sim.engine_mut();
    let links = engine.link_occupancies().len();
    assert_eq!(links, 2 * (1024 + 32 + 4));
    let cut = engine.cut_links(2);
    assert!(cut * 50 <= links, "{cut} of {links} links cut");
}

#[test]
fn paper_datacenter_spec_round_trips() {
    let (topo, _) = catalogue::build(&Dims::PAPER.spec()).expect("paper dims build");
    assert_eq!(topo.server_count(), 1024);
    assert_eq!(topo.switch_count(), 1 + 4 + 32);
    let (default, _) = catalogue::build("datacenter").expect("defaults build");
    assert_eq!(default.server_count(), 1024);
}

/// Every malformed spec fails with a typed topology error.
#[test]
fn bad_specs_fail_typed() {
    let huge = usize::MAX;
    for spec in [
        "",
        "nonesuch",
        "quickstart,",
        "quickstart,nodes=4",
        "fig8",
        "fig8,nodes",
        "fig8,nodes=0",
        "fig8,nodes=-1",
        "fig8,nodes=four",
        "fig8,nodes=4,nodes=4",
        "fig8,nodes=65537",
        "two_racks,qps=1",
        "datacenter,qps=nan",
        "datacenter,qps=inf",
        "datacenter,qps=-inf",
        "datacenter,qps=0",
        "datacenter,qps=-1",
        "datacenter,qps=0.5",
        "datacenter,qps=fast",
        "datacenter,qps=1,qps=2",
        "datacenter,requests=0",
        "datacenter,requests=x",
        "datacenter,dc=4x8",
        "datacenter,dc=4x8x32x2",
        "datacenter,dc=0x8x32",
        "datacenter,dc=4x8x0",
        "datacenter,dc=4xx32",
        "datacenter,dc=3x1x2",
        "datacenter,dc=1024x1024x1024",
        &format!("datacenter,dc={huge}x2x1"),
        &format!("datacenter,dc=2x{huge}x{huge}"),
        "datacenter,dc=4x8x32,seed=1",
        "datacenter,dc=4x8x32,dc=4x8x32",
    ] {
        match catalogue::build(spec) {
            Err(SimError::Topology { .. }) => {}
            Err(other) => panic!("{spec:?}: wrong error kind: {other}"),
            Ok(_) => panic!("{spec:?}: accepted"),
        }
    }
}

/// `Ok`, or a typed topology error — never a panic.
fn ok_or_typed(spec: &str) -> Result<(), TestCaseError> {
    match catalogue::build(spec) {
        Ok(_) | Err(SimError::Topology { .. }) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!(
            "{spec:?}: untyped error {other}"
        ))),
    }
}

/// Small valid specs to corrupt: one byte changed stays cheap to build.
const VALID: [&str; 5] = [
    "quickstart",
    "fig8,nodes=8",
    "two_racks",
    "datacenter,dc=2x2x4,requests=8,qps=200000",
    "datacenter,dc=1x2x3",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_specs_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
        ok_or_typed(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn one_byte_changes_never_panic(pick in any::<usize>(), at in any::<usize>(), byte in any::<u8>()) {
        let mut bytes = VALID[pick % VALID.len()].as_bytes().to_vec();
        let n = bytes.len();
        bytes[at % n] = byte;
        ok_or_typed(&String::from_utf8_lossy(&bytes))?;
    }
}
