//! MVCC versioned reads demo: non-blocking snapshot reads against a
//! live writer.
//!
//! Every sealed commit round gets a `Version`; the server retains a
//! bounded window of label snapshots and hands out [`ReadView`]s that
//! answer connectivity questions **as of** a version — without ever
//! blocking the writer. The demo walks the full surface:
//!
//! 1. time travel: views of old versions keep answering as the graph
//!    they saw, even after later rounds rewired it;
//! 2. the reader pool: `read_async` runs queries off the writer thread;
//! 3. read-your-writes: `SubmitOptions::min_version` fences a request
//!    behind a version so it observes an earlier write;
//! 4. bounded retention: evicted versions fail with a typed error that
//!    names the window.
//!
//! ```text
//! cargo run --release --example versioned_reads
//! ```

use dyncon_api::{Connectivity, Op, ReadView, VersionedRead};
use dyncon_core::BatchDynamicConnectivity;
use dyncon_server::{ConnServer, DynConError, ServerConfig, SubmitOptions};

fn main() {
    let n = 16;
    let server = ConnServer::start_versioned(
        BatchDynamicConnectivity::new(n),
        ServerConfig::new()
            .deterministic(true)
            .retain_views(4)
            .reader_threads(2),
    );

    // Round 0 builds a path 0-1-2-3; round 1 cuts it in the middle;
    // round 2 bridges the halves again through vertex 8.
    let rounds: Vec<Vec<Op>> = vec![
        vec![Op::Insert(0, 1), Op::Insert(1, 2), Op::Insert(2, 3)],
        vec![Op::Delete(1, 2)],
        vec![Op::Insert(1, 8), Op::Insert(8, 2)],
    ];
    let mut views: Vec<ReadView> = Vec::new();
    for ops in &rounds {
        let ticket = server
            .submit_with(ops.clone(), SubmitOptions::new().as_client(0))
            .unwrap();
        server.seal_round();
        let result = ticket.wait().unwrap();
        // A committed round's view is immediately available.
        let view = server.read_view_at(result.version).unwrap();
        println!(
            "committed version {}: {} edges, {} components",
            view.version(),
            view.edges().len(),
            view.num_components()
        );
        views.push(view);
    }

    // 1. Time travel: each retained view answers as of its version.
    assert!(views[0].connected(0, 3), "v0: the path is whole");
    assert!(!views[1].connected(0, 3), "v1: the cut split it");
    assert!(views[2].connected(0, 3), "v2: bridged through 8");
    println!("time travel ✓  (v0 connected, v1 cut, v2 bridged — all observable at once)");

    // 2. The reader pool: snapshot queries run off the writer thread.
    let handle = server.read_async(|view| (view.version(), view.component_size(0)));
    let (version, size) = handle.wait().unwrap().unwrap();
    println!("reader pool ✓  (async read of v{version}: component of 0 has {size} vertices)");

    // 3. Read-your-writes: fence a query behind the write's version.
    let write = server
        .submit_with(vec![Op::Insert(3, 9)], SubmitOptions::new().as_client(0))
        .unwrap();
    server.seal_round();
    let committed = write.wait().unwrap();
    let fenced = server
        .submit_with(
            vec![Op::Query(0, 9)],
            SubmitOptions::new()
                .blocking(true)
                .min_version(committed.version),
        )
        .unwrap();
    server.seal_round();
    let answer = fenced.wait().unwrap();
    assert_eq!(answer.answers, vec![true]);
    println!(
        "read-your-writes ✓  (query fenced at v{} saw the edge, committed as v{})",
        committed.version, answer.version
    );

    // 4. Bounded retention: version 0 has been evicted by now
    // (retain_views = 4, five rounds committed).
    match server.read_view_at(0) {
        Err(DynConError::UnknownVersion {
            requested,
            oldest,
            newest,
        }) => println!(
            "bounded retention ✓  (v{requested} evicted; window is [v{oldest}, v{newest}])"
        ),
        other => panic!("expected UnknownVersion, got {other:?}"),
    }

    // The stale views held above are unaffected by eviction: they share
    // the snapshot payload and stay valid as long as the handle lives.
    assert!(views[0].connected(0, 3));
    println!("held views outlive eviction ✓");
    server.join();
}
