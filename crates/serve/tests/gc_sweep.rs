//! The server's GC tick follows writes, not store size: once a funded
//! store is quiescent and swept, the next tick visits no variable at
//! all, and a later tick visits only the keys written since.
//!
//! One test in its own binary on purpose: the retained-spill registry
//! is process-wide, so exact visit counts hold only while nothing else
//! in the process writes.

use std::time::Duration;

use sitm_serve::loadgen::fund;
use sitm_serve::{Client, Server, ServerConfig, TxnOp};

const KEYS: u64 = 10_000;

#[test]
fn a_quiescent_store_costs_the_gc_tick_nothing() {
    let server = Server::start(ServerConfig {
        // Ticks only when the test asks for one.
        gc_interval: Duration::from_secs(3600),
        ..ServerConfig::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    fund(&mut client, KEYS).expect("funding");
    assert_eq!(server.keys(), KEYS as usize);

    // Every funded key left its initial version behind; with no
    // snapshot live, one tick reclaims all of it.
    let first = server.compact_now();
    assert_eq!(first.visited, KEYS, "each written key once");
    assert_eq!(first.retained, 0);
    assert_eq!(server.versions_retained(), KEYS as usize);

    let second = server.compact_now();
    assert_eq!(second.visited, 0, "a quiescent store costs nothing");

    // Three writes later the tick visits exactly those three keys.
    client
        .txn(vec![
            TxnOp::Add { key: 1, delta: 1 },
            TxnOp::Add { key: 2, delta: 1 },
            TxnOp::Add { key: 3, delta: 1 },
        ])
        .expect("txn");
    assert_eq!(server.compact_now().visited, 3);

    let metrics = server.metrics();
    assert_eq!(metrics.counter("serve.gc.ticks"), 3);
    assert_eq!(metrics.counter("serve.gc.visited"), KEYS + 3);
    assert_eq!(metrics.counter("serve.gc.reclaimed"), KEYS + 3);
    let sweeps = metrics.histogram("serve.gc.sweep_ns").expect("timed");
    assert_eq!(sweeps.total(), 3, "one sample per tick");
}
