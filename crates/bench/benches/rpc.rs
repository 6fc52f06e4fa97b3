//! Microbenchmark of one round trip through the socket front-end: a
//! `Ping` from a `MuxTransport` over TCP to an `RpcServer` (default
//! tuning) and back, with 1 or 2 callers sharing one mux connection.
//!
//! * `rpc/ping/1` — the bare round trip: client write, reactor read,
//!   dispatch to a worker, reply, client reader.
//! * `rpc/ping/2` — the same caller timed while a second one keeps the
//!   connection busy, so the server's thread hand-offs compete the way
//!   they do under a loaded version server.
//!
//! Every hop between threads is a context switch when the processes
//! share a CPU; pin the run (`taskset -c 0 cargo bench -p atomio-bench
//! --bench rpc`) to price them the way the wall-clock benchmark does.

use atomio_rpc::{MuxTransport, ProviderService, Request, RpcServer, Transport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn ping(c: &mut Criterion) {
    let mut group = c.benchmark_group("rpc/ping");
    for callers in [1usize, 2] {
        let mut server =
            RpcServer::start("127.0.0.1:0", Arc::new(ProviderService::new(1))).unwrap();
        let transport = MuxTransport::new(server.local_addr());
        let ping = || transport.call(&Request::Ping, &[]).unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 1..callers {
                s.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        ping();
                    }
                });
            }
            group.bench_function(BenchmarkId::from_parameter(callers), |b| b.iter(ping));
            done.store(true, Ordering::Relaxed);
        });
        server.stop();
    }
    group.finish();
}

criterion_group!(benches, ping);
criterion_main!(benches);
