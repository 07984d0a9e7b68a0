//! The robustness acceptance soak from the issue: concurrent client
//! threads drive a mixed workload against a daemon with injected worker
//! panics (`Boom`), a poisoned cache entry, a deliberately tiny work
//! queue, and per-request deadlines — and the contract must hold:
//!
//! * every request gets exactly one reply (panic, shed and deadline
//!   included — never silence, never a dropped connection);
//! * the daemon never dies;
//! * repeated identical requests produce byte-identical deterministic
//!   replies, poisoned cache or not;
//! * a graceful drain finishes with zero queued and zero in-flight
//!   requests and every client's tally balanced.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use flexserve::cache::{read_raw_entry, write_raw_entry, DiskCache};
use flexserve::protocol::{
    decode_batch_data, decode_reply_core, encode_core, encode_reply_core, reply_frame_len,
    MAX_FRAME,
};
use flexserve::{serve, Client, Reply, ReplyStatus, Request, ServeConfig};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flexserve-soak-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn canon(reply: &Reply) -> Vec<u8> {
    let mut canon = reply.clone();
    canon.cached = false;
    encode_reply_core(&canon)
}

fn asm(source: &str) -> Request {
    Request::Assemble {
        dialect: "fc4".to_string(),
        features: String::new(),
        source: source.to_string(),
    }
}

const FIXED_SOURCE: &str = "load r0\naddi 3\nstore r1\nhalt\n";
const SPIN_SOURCE: &str = "spin: jmp spin\n";

#[test]
fn hostile_weather_soak_holds_the_robustness_contract() {
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 8;

    let cache_dir = scratch("hostile");
    let handle = serve(ServeConfig {
        workers: 2,
        queue_depth: 4,
        max_connections: 24,
        cache_dir: cache_dir.clone(),
        ..ServeConfig::default()
    })
    .expect("daemon binds");
    let addr = handle.addr();

    // Prime the fixed request, then poison its cache entry on disk: the
    // soak's repeated calls must repair it and stay byte-identical.
    let mut primer = Client::connect(addr).expect("primer connects");
    let fixed = asm(FIXED_SOURCE);
    let reference = primer.call(&fixed).expect("prime");
    assert_eq!(reference.status, ReplyStatus::Ok, "{}", reference.text);
    let reference_bytes = canon(&reference);
    let side_cache = DiskCache::open(&cache_dir).expect("side view opens");
    let key = DiskCache::key_for(&encode_core(&fixed));
    let mut raw = read_raw_entry(&side_cache, &key).expect("primed entry exists");
    let last = raw.len() - 1;
    raw[last] ^= 0xA5;
    write_raw_entry(&side_cache, &key, &raw).expect("poison lands");

    let sent = Arc::new(AtomicU64::new(0));
    let replied = Arc::new(AtomicU64::new(0));
    let booms = Arc::new(AtomicU64::new(0));
    let soak_sheds = Arc::new(AtomicU64::new(0));

    // Under a 4-deep queue and 6 clients, Shed is a *correct* answer —
    // the contract is one reply per request, not zero sheds. Retry
    // until the daemon accepts the work, tallying every attempt.
    fn call_until_accepted(
        client: &mut Client,
        request: &Request,
        sent: &AtomicU64,
        replied: &AtomicU64,
        sheds: &AtomicU64,
    ) -> Reply {
        loop {
            sent.fetch_add(1, Ordering::Relaxed);
            let reply = client.call(request).expect("one reply per request");
            replied.fetch_add(1, Ordering::Relaxed);
            if reply.status != ReplyStatus::Shed {
                return reply;
            }
            sheds.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let threads: Vec<_> = (0..CLIENTS)
        .map(|id| {
            let reference_bytes = reference_bytes.clone();
            let sent = Arc::clone(&sent);
            let replied = Arc::clone(&replied);
            let booms = Arc::clone(&booms);
            let soak_sheds = Arc::clone(&soak_sheds);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("soak client connects");
                for round in 0..ROUNDS {
                    // 1: the poisoned-then-repaired fixed request — its
                    // deterministic bytes must never vary.
                    let reply = call_until_accepted(
                        &mut client,
                        &asm(FIXED_SOURCE),
                        &sent,
                        &replied,
                        &soak_sheds,
                    );
                    assert_eq!(reply.status, ReplyStatus::Ok, "{}", reply.text);
                    assert_eq!(
                        canon(&reply),
                        reference_bytes,
                        "client {id} round {round}: fixed request diverged"
                    );

                    // 2: a per-client unique source — exercises cold
                    // misses under contention.
                    let unique = format!("load r0\naddi {}\nstore r1\nhalt\n", (id + round) % 7);
                    let reply = call_until_accepted(
                        &mut client,
                        &asm(&unique),
                        &sent,
                        &replied,
                        &soak_sheds,
                    );
                    assert_eq!(reply.status, ReplyStatus::Ok, "{}", reply.text);

                    // 3: an injected worker panic — must come back as an
                    // error reply on a live connection, every time.
                    let reply = call_until_accepted(
                        &mut client,
                        &Request::Boom,
                        &sent,
                        &replied,
                        &soak_sheds,
                    );
                    assert_eq!(reply.status, ReplyStatus::Error, "{}", reply.text);
                    assert!(reply.text.contains("panicked"), "{}", reply.text);
                    booms.fetch_add(1, Ordering::Relaxed);

                    // 4: a deadline that cannot be met — the endless
                    // program must be cancelled, not served or hung.
                    client.deadline_ms = 30;
                    let reply = call_until_accepted(
                        &mut client,
                        &Request::Simulate {
                            dialect: "fc4".to_string(),
                            features: String::new(),
                            source: SPIN_SOURCE.to_string(),
                            inputs: Vec::new(),
                            max_cycles: 100_000_000,
                        },
                        &sent,
                        &replied,
                        &soak_sheds,
                    );
                    assert_eq!(reply.status, ReplyStatus::Deadline, "{}", reply.text);
                    client.deadline_ms = 0;
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("soak client must not panic");
    }

    // Saturate the pool with deadline-bounded spins, then pour a batch
    // through the 4-deep queue: the overflow must shed, not block.
    let spin_threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("spin client connects");
                client.deadline_ms = 600;
                let reply = client
                    .call(&Request::Simulate {
                        dialect: "fc4".to_string(),
                        features: String::new(),
                        source: SPIN_SOURCE.to_string(),
                        inputs: Vec::new(),
                        max_cycles: 100_000_000,
                    })
                    .expect("spin reply");
                assert_eq!(reply.status, ReplyStatus::Deadline, "{}", reply.text);
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    let flood: Vec<Request> = (0..12)
        .map(|i| asm(&format!("load r0\naddi {}\nstore r2\nhalt\n", i % 8)))
        .collect();
    let flood_len = flood.len();
    let batch_reply = primer
        .call(&Request::Batch(flood))
        .expect("batch reply even under saturation");
    assert_eq!(batch_reply.status, ReplyStatus::Ok, "{}", batch_reply.text);
    let subs = flexserve::protocol::decode_batch_data(&batch_reply.data).expect("batch decodes");
    assert_eq!(
        subs.len(),
        flood_len,
        "exactly one sub-reply per sub-request"
    );
    for t in spin_threads {
        t.join().expect("spin clients must not panic");
    }

    // Graceful drain: stop accepting, finish everything, lose nothing.
    let drain = primer.call(&Request::Drain).expect("drain reply");
    assert_eq!(drain.status, ReplyStatus::Ok);
    let stats = handle.wait();

    assert_eq!(stats.queued, 0, "drain left work queued");
    assert_eq!(stats.in_flight, 0, "drain left work in flight");
    assert_eq!(stats.connections, 0, "drain left connections open");
    assert_eq!(
        sent.load(Ordering::Relaxed),
        replied.load(Ordering::Relaxed),
        "every soak request must get exactly one reply"
    );
    assert_eq!(
        stats.panics,
        booms.load(Ordering::Relaxed),
        "every injected panic isolated and counted"
    );
    assert!(stats.cache.repairs >= 1, "the poisoned entry was repaired");
    assert!(
        stats.deadlines >= (CLIENTS * ROUNDS) as u64,
        "deadline cancellations counted"
    );
    assert!(
        stats.sheds > 0,
        "the saturated 4-deep queue must have shed some of the 12-wide batch"
    );
    assert!(stats.cache.hits > 0, "repeated requests hit the cache");
}

#[test]
fn drain_finishes_in_flight_work_before_exiting() {
    let handle = serve(ServeConfig {
        workers: 1,
        queue_depth: 8,
        max_connections: 8,
        cache_dir: scratch("drain"),
        ..ServeConfig::default()
    })
    .expect("daemon binds");
    let addr = handle.addr();

    // A request that takes real time (deadline-bounded spin) goes in
    // flight; the drain triggers while it runs; the reply must still
    // arrive before the daemon exits.
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("client connects");
        client.deadline_ms = 400;
        client
            .call(&Request::Simulate {
                dialect: "fc4".to_string(),
                features: String::new(),
                source: SPIN_SOURCE.to_string(),
                inputs: Vec::new(),
                max_cycles: 100_000_000,
            })
            .expect("in-flight request must be answered across the drain")
    });
    std::thread::sleep(Duration::from_millis(100));
    handle.trigger_drain();
    let reply = worker.join().expect("client thread");
    assert_eq!(reply.status, ReplyStatus::Deadline, "{}", reply.text);
    let stats = handle.wait();
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.in_flight, 0);
    assert!(stats.draining);
}

#[test]
fn connection_cap_sheds_with_a_reply_not_a_hang() {
    let handle = serve(ServeConfig {
        workers: 1,
        queue_depth: 4,
        max_connections: 1,
        cache_dir: scratch("conncap"),
        ..ServeConfig::default()
    })
    .expect("daemon binds");
    let addr = handle.addr();

    let mut first = Client::connect(addr).expect("first connects");
    let status = first.call(&Request::Status).expect("status");
    assert_eq!(status.status, ReplyStatus::Ok);

    // The second connection is over the cap: the daemon sends one
    // unsolicited shed reply and closes.
    let mut stream = std::net::TcpStream::connect(addr).expect("second connects at TCP level");
    let frame = flexserve::protocol::read_frame(&mut stream).expect("unsolicited shed frame");
    let reply = flexserve::protocol::decode_reply(&frame).expect("shed decodes");
    assert_eq!(reply.status, ReplyStatus::Shed, "{}", reply.text);

    drop(first);
    handle.drain();
}

/// An fc4 loop that stores to the output port every pass, so a
/// simulation's reply carries one data byte per pass.
const STORE_LOOP: &str = "label: store r1\njmp label\n";

fn store_loop(max_cycles: u64) -> Request {
    Request::Simulate {
        dialect: "fc4".to_string(),
        features: String::new(),
        source: STORE_LOOP.to_string(),
        inputs: Vec::new(),
        max_cycles,
    }
}

#[test]
fn a_reply_too_large_for_a_frame_is_one_cached_error() {
    let cache_dir = scratch("oversize");
    let handle = serve(ServeConfig {
        workers: 1,
        cache_dir: cache_dir.clone(),
        ..ServeConfig::default()
    })
    .expect("daemon binds");
    let request = store_loop(4_000_000);

    // the client gets exactly one reply, twice: computed, then cached
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let first = client
        .call(&request)
        .expect("an oversized reply is still a reply");
    assert_eq!(first.status, ReplyStatus::Error, "{}", first.text);
    assert!(
        first.text.contains("exceeds the 1 MiB frame"),
        "{}",
        first.text
    );
    let again = client.call(&request).expect("the connection survives");
    assert!(again.cached);
    assert_eq!(canon(&again), canon(&first));

    // the cache holds that error, and it fits a frame
    let cache = DiskCache::open(&cache_dir).expect("cache opens");
    let entry = cache
        .get(&DiskCache::key_for(&encode_core(&request)))
        .expect("the error verdict is cached");
    let cached = decode_reply_core(&entry).expect("the entry decodes");
    assert_eq!(cached.status, ReplyStatus::Error);
    assert_eq!(cached.text, first.text);
    assert!(reply_frame_len(&cached) <= MAX_FRAME);

    drop(client);
    let stats = handle.drain();
    assert_eq!(stats.requests, stats.replies);
}

#[test]
fn a_batch_too_large_for_a_frame_is_an_error() {
    let handle = serve(ServeConfig {
        workers: 1,
        cache_dir: scratch("oversize-batch"),
        ..ServeConfig::default()
    })
    .expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    // each sub-reply fits a frame on its own; packed together they do not
    let single = client.call(&store_loop(2_000_000)).expect("single reply");
    assert_eq!(single.status, ReplyStatus::Ok, "{}", single.text);
    assert!(reply_frame_len(&single) <= MAX_FRAME);
    let batch = Request::Batch(vec![store_loop(2_000_000), store_loop(2_000_001)]);
    let reply = client
        .call(&batch)
        .expect("an oversized batch is still a reply");
    assert_eq!(reply.status, ReplyStatus::Error, "{}", reply.text);
    assert!(
        reply.text.contains("exceeds the 1 MiB frame"),
        "{}",
        reply.text
    );
    assert!(
        decode_batch_data(&reply.data).is_err(),
        "no sub-replies ride along"
    );

    drop(client);
    handle.drain();
}

#[test]
fn a_cached_entry_too_large_for_a_frame_is_recomputed() {
    // a cache written before oversized replies became errors can hold an
    // entry that no frame can carry: it reads as a miss and is replaced
    let cache_dir = scratch("oversize-entry");
    let request = asm(FIXED_SOURCE);
    let key = DiskCache::key_for(&encode_core(&request));
    let stale = Reply {
        data: vec![0; MAX_FRAME],
        ..Reply::ok("stale")
    };
    DiskCache::open(&cache_dir)
        .expect("cache opens")
        .put(&key, &encode_reply_core(&stale));

    let handle = serve(ServeConfig {
        workers: 1,
        cache_dir,
        ..ServeConfig::default()
    })
    .expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let fresh = client
        .call(&request)
        .expect("a reply, not a dropped connection");
    assert_eq!(fresh.status, ReplyStatus::Ok, "{}", fresh.text);
    assert!(!fresh.cached);
    let again = client.call(&request).expect("second reply");
    assert!(again.cached, "the recomputed reply replaced the entry");
    assert_eq!(canon(&again), canon(&fresh));

    drop(client);
    handle.drain();
}
