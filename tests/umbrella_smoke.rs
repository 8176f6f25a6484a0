//! Workspace-level smoke test exercising the umbrella crate's re-export
//! surface in `src/lib.rs`: everything here goes through `dyncon::*`
//! paths (not the member crates directly), so a broken re-export fails
//! this test even if the members themselves are healthy.

use dyncon::core::BatchDynamicConnectivity;
use dyncon::graphgen::{grid2d, path, UpdateStream};

#[test]
fn umbrella_reexports_build_a_graph() {
    let n = 64usize;
    let mut g = BatchDynamicConnectivity::new(n);
    assert_eq!(g.num_components(), n);

    // A path connects everything into one component.
    g.batch_insert(&path(n));
    assert_eq!(g.num_components(), 1);
    assert!(g.connected(0, (n - 1) as u32));

    // Cutting one interior edge splits it in two.
    g.batch_delete(&[(10, 11)]);
    assert_eq!(g.num_components(), 2);
    assert!(!g.connected(0, (n - 1) as u32));
    assert!(g.connected(0, 10));
    assert_eq!(g.component_size(0), 11);

    // Batch queries agree with scalar queries.
    let queries = [(0u32, 10u32), (0, 11), (11, (n - 1) as u32)];
    assert_eq!(g.batch_connected(&queries), vec![true, false, true]);
}

#[test]
fn umbrella_exposes_the_unified_api() {
    use dyncon::api::{BatchDynamic, Builder, Op};

    let mut backends: Vec<Box<dyn BatchDynamic>> = vec![
        Box::new(
            Builder::new(8)
                .build::<dyncon::core::BatchDynamicConnectivity>()
                .unwrap(),
        ),
        Box::new(
            Builder::new(8)
                .build::<dyncon::hdt::HdtConnectivity>()
                .unwrap(),
        ),
        Box::new(
            Builder::new(8)
                .build::<dyncon::spanning::StaticRecompute>()
                .unwrap(),
        ),
    ];
    for g in &mut backends {
        let res = g
            .apply(&[Op::Insert(0, 1), Op::Query(0, 1), Op::Delete(0, 1)])
            .unwrap();
        assert_eq!(res.answers, vec![true], "{}", g.backend_name());
        assert_eq!(g.num_components(), 8);
    }
    // The typed error type is reachable through the umbrella too.
    let _ = dyncon::api::DynConError::InvalidVertexCount { requested: 0 };
}

#[test]
fn umbrella_reexports_cover_every_member() {
    // Touch one symbol from each re-exported member crate so a dropped
    // `pub use` in src/lib.rs cannot slip through.
    let seed = dyncon::primitives::SplitMix64::new(7).next_u64();
    let _ = dyncon::skiplist::NIL;
    let mut forest = dyncon::ett::EulerTourForest::new(4, seed);
    forest.link(0, 1, true);
    assert!(forest.connected(0, 1));
    let mut hdt = dyncon::hdt::HdtConnectivity::new(4);
    assert!(hdt.insert(0, 1));
    let mut uf = dyncon::spanning::UnionFind::new(4);
    uf.union(2, 3);
    assert_eq!(uf.find(2), uf.find(3));

    let edges = grid2d(4, 4);
    let stream = UpdateStream::insert_then_delete(&edges, 8, 4, 13);
    assert!(stream.total_ops() >= edges.len());

    // The serving and durable layers are reachable through the umbrella.
    let server = dyncon::server::ConnServer::start(
        BatchDynamicConnectivity::new(4),
        dyncon::server::ServerConfig::new(),
    );
    server
        .submit_with(
            vec![dyncon::api::Op::Insert(0, 1)],
            dyncon::server::SubmitOptions::new(),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert!(server.join().backend.connected(0, 1));

    let dir = dyncon::durable::scratch_dir("umbrella");
    std::fs::create_dir_all(&dir).unwrap();
    let mut wal =
        dyncon::durable::WalWriter::open(&dir, dyncon::durable::FsyncPolicy::Never, 0).unwrap();
    wal.append_round(&[dyncon::api::Op::Insert(0, 1)]).unwrap();
    drop(wal);
    let readout = dyncon::durable::read_wal(&dir).unwrap().unwrap();
    assert_eq!(readout.records.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
