//! Integration tests of the serving layer: wire-protocol robustness
//! under fuzzed and mutated inputs, snapshot hot-swap atomicity under
//! concurrent readers, and a real TCP server surviving admin swaps mid
//! load with zero dropped or failed queries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xvr_bench::{paper_document, planted_views, test_queries};
use xvr_core::{
    read_frame, run_load, write_frame, Client, Engine, EngineConfig, LoadConfig, QueryOptions,
    Request, Response, Server, ServerConfig, SnapshotCell, Status, Strategy, WireError,
    WireOptions, MAX_FRAME_LEN,
};

fn planted_engine(scale: f64) -> (Engine, Vec<String>) {
    let doc = paper_document(scale, 0x5eed);
    let mut engine = Engine::new(doc, EngineConfig::default());
    let mut sources = Vec::new();
    for src in planted_views() {
        engine.add_view_str(src).expect("planted view parses");
        sources.push(src.to_string());
    }
    (engine, sources)
}

// --- Wire protocol robustness -------------------------------------------

/// Decoding arbitrary bytes never panics: every outcome is a clean value
/// or a `WireError`. 4096 random payloads of random lengths through both
/// decoders.
#[test]
fn decode_random_bytes_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xf422);
    for _ in 0..4096 {
        let len = rng.gen_range(0usize..256);
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }
}

/// Mutating a valid encoding — truncating it at any point or flipping a
/// random byte — either still decodes or fails cleanly; and untouched
/// encodings always round-trip to the original value.
#[test]
fn mutated_encodings_fail_cleanly() {
    let requests = vec![
        Request::Ping,
        Request::Query {
            query: "/site/people/person[address/city]/name".into(),
            options: WireOptions::strategy(Strategy::Mv),
        },
        Request::Batch {
            queries: test_queries().iter().map(|q| q.xpath.to_string()).collect(),
            options: WireOptions::strategy(Strategy::Hv),
            jobs: 4,
        },
        Request::Stats,
        Request::AddView {
            xpath: "/site/open_auctions/open_auction[bidder]/initial".into(),
        },
        Request::SwapDoc {
            path: "data/xmark_001.xml".into(),
        },
        Request::Shutdown,
        Request::Advise {
            queries: test_queries().iter().map(|q| q.xpath.to_string()).collect(),
            budget: 1 << 20,
            seed: 42,
        },
    ];
    let mut rng = StdRng::seed_from_u64(99);
    for request in &requests {
        let bytes = request.encode();
        assert_eq!(&Request::decode(&bytes).unwrap(), request);
        // Every proper prefix is an error, never a panic or a value
        // (all encodings here are self-delimiting).
        for cut in 0..bytes.len() {
            assert!(Request::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        // Random single-byte corruption: decode may succeed (the byte may
        // be inside a string) but must never panic.
        for _ in 0..64 {
            let mut corrupt = bytes.clone();
            let at = rng.gen_range(0usize..corrupt.len());
            corrupt[at] ^= rng.gen_range(1u8..=255);
            let _ = Request::decode(&corrupt);
        }
    }
}

/// Frame reading rejects oversized lengths before allocating, reports
/// truncation inside a frame, and treats EOF at a frame boundary as a
/// clean end of stream.
#[test]
fn frame_reader_handles_truncation_and_oversize() {
    // Clean EOF between frames.
    assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
    // EOF inside the length prefix and inside the payload.
    assert_eq!(
        read_frame(&mut &[0u8, 0][..]).unwrap_err(),
        WireError::Truncated
    );
    let mut partial = Vec::new();
    write_frame(&mut partial, b"hello").unwrap();
    for cut in 1..partial.len() {
        assert_eq!(
            read_frame(&mut &partial[..cut]).unwrap_err(),
            WireError::Truncated,
            "cut {cut}"
        );
    }
    // A length prefix beyond MAX_FRAME_LEN is rejected without reading on.
    let huge = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes();
    assert!(matches!(
        read_frame(&mut &huge[..]).unwrap_err(),
        WireError::Oversized(_)
    ));
    // And a stream of random garbage never panics the reader.
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..256 {
        let len = rng.gen_range(0usize..64);
        let junk: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let mut cursor = &junk[..];
        while let Ok(Some(_)) | Err(_) = read_frame(&mut cursor) {
            if cursor.is_empty() {
                break;
            }
        }
    }
}

// --- Snapshot swap atomicity --------------------------------------------

/// Concurrent readers racing a `SnapshotCell::swap` observe the old
/// snapshot or the new one, never an error and never a torn state: a
/// query that is unanswerable pre-swap and answerable post-swap yields
/// exactly `NotAnswerable` or the post-swap answer on every read.
#[test]
fn swap_under_concurrent_readers_is_atomic() {
    let doc = paper_document(0.002, 7);
    let mut engine = Engine::new(doc, EngineConfig::default());
    // Q1's self-view only: Q2 is unanswerable until the swap adds its views.
    engine
        .add_view_str("/site/open_auctions/open_auction[bidder]/initial")
        .unwrap();
    let q2 = engine
        .parse("/site/people/person[address/city][profile/age]/name")
        .unwrap();
    let cell = SnapshotCell::new(engine.snapshot());

    // The answer Q2 must have once the swap lands.
    engine
        .add_view_str("/site/people/person[address/city]/name")
        .unwrap();
    engine
        .add_view_str("/site/people/person[profile/age]/name")
        .unwrap();
    let next = engine.snapshot();
    let expected: Vec<String> = next
        .query(&q2, &QueryOptions::default())
        .answer
        .expect("answerable post-swap")
        .codes
        .iter()
        .map(|c| c.to_string())
        .collect();

    let done = AtomicBool::new(false);
    let options = QueryOptions::default();
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..4 {
            readers.push(scope.spawn(|| {
                let mut before = 0u64;
                let mut after = 0u64;
                while !done.load(Ordering::Acquire) {
                    let snap = cell.load();
                    match snap.query(&q2, &options).answer {
                        Ok(a) => {
                            let got: Vec<String> = a.codes.iter().map(|c| c.to_string()).collect();
                            assert_eq!(got, expected, "post-swap answer diverged");
                            after += 1;
                        }
                        Err(xvr_core::AnswerError::NotAnswerable) => before += 1,
                        Err(e) => panic!("reader saw a torn snapshot: {e}"),
                    }
                }
                (before, after)
            }));
        }
        // Let readers observe the old snapshot, then publish the new one.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(cell.swap(next), 1);
        std::thread::sleep(Duration::from_millis(20));
        done.store(true, Ordering::Release);
        let mut total_before = 0;
        let mut total_after = 0;
        for r in readers {
            let (before, after) = r.join().unwrap();
            total_before += before;
            total_after += after;
        }
        // Both sides of the swap were actually exercised.
        assert!(total_before > 0, "no reader saw the pre-swap snapshot");
        assert!(total_after > 0, "no reader saw the post-swap snapshot");
    });
    assert_eq!(cell.epoch(), 1);
}

// --- Server over real TCP ------------------------------------------------

/// End-to-end over TCP: ping, query, batch, stats (counting every served
/// query), add-view (bumping the epoch), error mapping for bad queries,
/// and a malformed-but-well-framed payload answered with `BadRequest` on
/// a connection that stays usable.
#[test]
fn server_request_response_cycle() {
    let (engine, sources) = planted_engine(0.002);
    let server = Server::bind("127.0.0.1:0", engine, sources, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));

    // A planted query answers with the paper's HV strategy.
    let resp = client
        .call(&Request::Query {
            query: "/site/people/person[address/city][profile/age]/name".into(),
            options: WireOptions::default(),
        })
        .unwrap();
    match resp {
        Response::Answer {
            strategy,
            views_used,
            ..
        } => {
            assert_eq!(strategy, Strategy::Hv);
            assert!(views_used >= 1);
        }
        other => panic!("expected an answer, got {other:?}"),
    }

    // An unanswerable query maps to NotAnswerable, a syntax error to Input.
    let resp = client
        .call(&Request::Query {
            query: "/nowhere/to/be/found".into(),
            options: WireOptions::default(),
        })
        .unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                status: Status::NotAnswerable,
                ..
            }
        ),
        "{resp:?}"
    );
    let resp = client
        .call(&Request::Query {
            query: "///".into(),
            options: WireOptions::default(),
        })
        .unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                status: Status::Input,
                ..
            }
        ),
        "{resp:?}"
    );

    // Batch: per-item statuses in workload order.
    let mut queries: Vec<String> = test_queries().iter().map(|q| q.xpath.to_string()).collect();
    queries.insert(1, "///broken".into());
    let resp = client
        .call(&Request::Batch {
            queries,
            options: WireOptions::default(),
            jobs: 2,
        })
        .unwrap();
    match resp {
        Response::Batch { items, jobs, .. } => {
            assert_eq!(items.len(), 5);
            assert_eq!(jobs, 2);
            assert_eq!(items[1].status, Status::Input);
            for (i, item) in items.iter().enumerate() {
                if i != 1 {
                    assert_eq!(item.status, Status::Ok, "item {i}");
                    assert!(!item.codes.is_empty(), "item {i}");
                }
            }
        }
        other => panic!("expected a batch, got {other:?}"),
    }

    // Every served query counts, though no request asked for metrics:
    // the two single queries that parsed (one answered, one
    // NotAnswerable) plus the four batch items that parsed (all
    // answered).
    let resp = client.call(&Request::Stats).unwrap();
    match resp {
        Response::Stats {
            epoch,
            queries,
            answered,
            ..
        } => {
            assert_eq!(epoch, 0);
            assert_eq!(queries, 2 + 4);
            assert_eq!(answered, 1 + 4);
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // A well-framed but undecodable payload: BadRequest, connection lives.
    let resp = client.call_raw(&[0x7f, 1, 2, 3]).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                status: Status::BadRequest,
                ..
            }
        ),
        "{resp:?}"
    );
    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));

    // add-view publishes a new snapshot and bumps the epoch.
    let resp = client
        .call(&Request::AddView {
            xpath: "/site/regions//item/name".into(),
        })
        .unwrap();
    match resp {
        Response::Swapped { epoch, views, .. } => {
            assert_eq!(epoch, 1);
            assert_eq!(views, 9); // 8 planted + 1
        }
        other => panic!("expected swapped, got {other:?}"),
    }
    // The counters belong to the engine, not to one snapshot: the swap
    // the write published keeps them.
    let resp = client.call(&Request::Stats).unwrap();
    match resp {
        Response::Stats {
            epoch,
            queries,
            answered,
            requests,
            report,
            ..
        } => {
            assert_eq!(epoch, 1);
            assert_eq!(queries, 2 + 4);
            assert_eq!(answered, 1 + 4);
            assert!(requests >= 7);
            assert!(report.contains("rewrite cache: "), "{report}");
            assert!(report.contains("bytes resident"), "{report}");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    handle.join().unwrap().unwrap();
}

/// `SwapDoc` builds a new engine over the new document; the served
/// counts carry over into it, so `Stats` keeps counting across the swap.
#[test]
fn stats_survive_a_document_swap() {
    let (engine, sources) = planted_engine(0.002);
    let xml = xvr_xml::serialize(&engine.doc().tree, engine.labels());
    let path = std::env::temp_dir().join(format!("xvr-swap-stats-{}.xml", std::process::id()));
    std::fs::write(&path, xml).unwrap();
    let server = Server::bind("127.0.0.1:0", engine, sources, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let query = Request::Query {
        query: test_queries()[0].xpath.to_string(),
        options: WireOptions::default(),
    };
    assert!(matches!(
        client.call(&query).unwrap(),
        Response::Answer { .. }
    ));
    let resp = client
        .call(&Request::SwapDoc {
            path: path.to_string_lossy().into_owned(),
        })
        .unwrap();
    assert!(
        matches!(resp, Response::Swapped { epoch: 1, .. }),
        "{resp:?}"
    );
    assert!(matches!(
        client.call(&query).unwrap(),
        Response::Answer { .. }
    ));
    match client.call(&Request::Stats).unwrap() {
        Response::Stats {
            epoch,
            queries,
            answered,
            ..
        } => {
            assert_eq!(epoch, 1);
            assert_eq!((queries, answered), (2, 2));
        }
        other => panic!("expected stats, got {other:?}"),
    }
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    handle.join().unwrap().unwrap();
    std::fs::remove_file(&path).unwrap();
}

/// The advisor over the wire: an `Advise` request against the resident
/// document returns a proposal that covers the workload, and the
/// connection keeps serving queries afterwards (the advisor is
/// read-only — no epoch bump). Bad inputs map to `Input` errors.
#[test]
fn server_advises_over_the_wire() {
    let (engine, sources) = planted_engine(0.002);
    let server = Server::bind("127.0.0.1:0", engine, sources, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let queries: Vec<String> = test_queries().iter().map(|q| q.xpath.to_string()).collect();
    let resp = client.advise(queries.clone(), 64 << 20, 42).unwrap();
    match resp {
        Response::Advice {
            views,
            answered_weight,
            total_weight,
            total_bytes,
            ..
        } => {
            assert!(!views.is_empty(), "a covering set exists for the workload");
            assert_eq!(total_weight, queries.len() as u64);
            assert_eq!(answered_weight, total_weight, "workload fully covered");
            assert!(total_bytes <= 64 << 20, "budget respected");
            for v in &views {
                assert!(!v.xpath.is_empty());
            }
        }
        other => panic!("expected advice, got {other:?}"),
    }

    // An empty workload is the caller's mistake, not a crash.
    let resp = client.advise(Vec::new(), 64 << 20, 42).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                status: Status::Input,
                ..
            }
        ),
        "{resp:?}"
    );
    // So is an unparsable workload query.
    let resp = client.advise(vec!["///".into()], 64 << 20, 42).unwrap();
    assert!(
        matches!(
            resp,
            Response::Error {
                status: Status::Input,
                ..
            }
        ),
        "{resp:?}"
    );

    // The advisor is read-only: no snapshot swap, and queries still flow.
    let resp = client.call(&Request::Stats).unwrap();
    match resp {
        Response::Stats { epoch, .. } => assert_eq!(epoch, 0),
        other => panic!("expected stats, got {other:?}"),
    }
    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));

    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    handle.join().unwrap().unwrap();
}

/// The acceptance test of the hot-swap design: an open-loop load of the
/// Table III workload runs against the server while an admin connection
/// publishes a new snapshot every 2ms. Every request completes and none
/// fails — in-flight queries finish on the snapshot they pinned.
#[test]
fn hot_swap_under_load_drops_nothing() {
    let (engine, sources) = planted_engine(0.002);
    let server = Server::bind("127.0.0.1:0", engine, sources, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let config = LoadConfig {
        queries: test_queries().iter().map(|q| q.xpath.to_string()).collect(),
        options: WireOptions::default(),
        connections: 4,
        qps: 0.0,
        total: 400,
    };
    let swap_sources = [
        "/site/regions//item/name",
        "/site/people/person[@id]/name",
        "//open_auction[bidder]/current",
        "/site/catgraph/edge",
    ];
    let (report, swaps) = std::thread::scope(|scope| {
        let load = scope.spawn(|| run_load(&addr, &config).unwrap());
        let mut admin = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
        let mut swaps = 0u64;
        while !load.is_finished() {
            let xpath = swap_sources[swaps as usize % swap_sources.len()].to_string();
            match admin.call(&Request::AddView { xpath }).unwrap() {
                Response::Swapped { epoch, .. } => {
                    swaps += 1;
                    assert_eq!(epoch, swaps);
                }
                other => panic!("add-view answered {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        (load.join().unwrap(), swaps)
    });

    assert!(swaps > 0, "load outran the very first swap");
    assert_eq!(report.completed, 400, "requests were dropped");
    assert_eq!(report.errors, 0, "queries failed during swaps");
    assert_eq!(
        report.ok, 400,
        "the planted workload stayed answerable through every swap"
    );

    let mut admin = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    assert!(matches!(
        admin.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    handle.join().unwrap().unwrap();
}
