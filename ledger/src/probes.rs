//! Isolated per-layer probes: each times calls into one crate's public
//! functions from outside, with nothing else running, so a number here
//! is the layer's own cost — no waiting, no contention. The in-situ
//! counters of the dist workloads and the budget rows say how much of a
//! packet's end-to-end time these costs explain.
//!
//! Metric names are `<crate>.<module>.<what>`. Every probe reports the
//! median of several batches; the whole set takes a few seconds.

use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use gates_apps::count_samps::{self, CountSampsParams, Mode};
use gates_core::adapt::{AdaptationConfig, LoadException, LoadTracker, ParamController};
use gates_core::{AdjustmentParameter, Direction, Packet, PayloadWriter, StageApi, Topology};
use gates_engine::{DesEngine, RunOptions, ThreadedEngine};
use gates_grid::{ApplicationRepository, Deployer, Launcher, ResourceRegistry};
use gates_net::{
    crc32, decode_frame_slice, encode_frame_into, AckWindow, BufferPool, Directive, Frame,
    FrameKind, FrameStream, PooledReader, Reactor, Ready, Source, TokenBucket,
};
use gates_sim::rng::seeded;
use gates_sim::{Actor, Context, Event, SimDuration, Simulation};
use gates_streams::{CountingSamples, ZipfGenerator};

use crate::hist::Histogram;
use crate::report::Metric;
use crate::spans::Spans;
use crate::stages::{self, RelayParams};
use crate::stats::median;
use crate::sys;
use crate::workloads::cs_summ;

/// Batches timed per probe; the median batch is reported.
const BATCHES: usize = 9;
/// The grid description the Launcher probe parses, as shipped.
const GRID_XML: &str = include_str!("../../configs/grid.xml");

/// Nanoseconds per call of `f`: the median over [`BATCHES`] batches of
/// `per_batch` calls each.
fn ns_per_call(per_batch: u64, mut f: impl FnMut()) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batches.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&batches)
}

fn payload(len: usize, seed: u64) -> Bytes {
    use rand::RngCore;
    let mut v = vec![0u8; len];
    seeded(seed).fill_bytes(&mut v);
    Bytes::from(v)
}

/// Run every probe; `seed` feeds payload fill and the Zipf streams.
pub fn run(seed: u64, spans: &Spans, parent: u64) -> Vec<Metric> {
    let root = spans.open("probes", parent);
    let mut out = Vec::new();
    let mut probe = |name: &str, f: &mut dyn FnMut() -> f64| {
        let span = spans.open(&format!("probe.{name}"), root);
        let value = f();
        spans.close(span);
        out.push(Metric::layer(name, value));
    };

    // ---- gates-xml / gates-grid: what set-up is made of --------------
    let app_xml = crate::distload::count_samps_xml("probe", cs_summ::SOURCES, 1_000, true, seed);
    probe("xml.parse_us", &mut || {
        ns_per_call(200, || {
            std::hint::black_box(gates_xml::parse(std::hint::black_box(&app_xml)).is_ok());
            std::hint::black_box(gates_xml::parse(std::hint::black_box(GRID_XML)).is_ok());
        }) / 1e3
    });
    let mut repo = ApplicationRepository::new();
    stages::publish(&mut repo);
    let registry = ResourceRegistry::uniform_cluster(&["site-0", "site-1", "central"]);
    probe("grid.launch_us", &mut || {
        ns_per_call(50, || {
            let d = Launcher::new().launch_xml(&app_xml, &repo, &registry);
            std::hint::black_box(d.is_ok());
        }) / 1e3
    });

    // ---- gates-core: packet codec and the adaptation loop ------------
    for (len, tag) in [(256usize, "256B"), (800, "800B")] {
        let packet = Packet::data(1, 7, 16, payload(len, seed));
        let mut buf = BytesMut::with_capacity(1 << 16);
        probe(&format!("core.packet.encode_ns_{tag}"), &mut || {
            ns_per_call(20_000, || {
                buf.clear();
                packet.encode_into_with_seq(9, &mut buf);
                std::hint::black_box(buf.len());
            })
        });
    }
    let frame = Packet::data(1, 7, 100, payload(800, seed)).to_frame();
    probe("core.packet.decode_ns", &mut || {
        ns_per_call(20_000, || {
            std::hint::black_box(Packet::from_frame(std::hint::black_box(&frame)).is_ok());
        })
    });
    probe("core.adapt.observe_ns", &mut || {
        let mut tracker = LoadTracker::new(AdaptationConfig::default());
        let mut i = 0u64;
        ns_per_call(20_000, || {
            i += 1;
            let d = if i.is_multiple_of(2) { 95.0 } else { 2.0 };
            std::hint::black_box(tracker.observe(std::hint::black_box(d)));
        })
    });
    probe("core.adapt.round_ns", &mut || {
        let spec =
            AdjustmentParameter::new("p", 0.5, 0.01, 1.0, 0.01, Direction::IncreaseSlowsDown)
                .expect("valid parameter");
        let mut ctl = ParamController::new(AdaptationConfig::default(), spec);
        let mut i = 0u64;
        ns_per_call(5_000, || {
            i += 1;
            if i.is_multiple_of(3) {
                ctl.on_exception(LoadException::Overload);
            }
            std::hint::black_box(ctl.adapt(std::hint::black_box((i % 200) as f64 - 100.0)));
        })
    });

    // ---- gates-net: the pieces of the data plane ---------------------
    let kib = payload(1024, seed);
    probe("net.crc32.ns_per_kib", &mut || {
        ns_per_call(20_000, || {
            std::hint::black_box(crc32(std::hint::black_box(&kib)));
        })
    });
    let net_frame =
        Frame { kind: FrameKind::Data, stream_id: 1, seq: 7, payload: payload(800, seed) };
    let mut buf = BytesMut::with_capacity(1 << 16);
    probe("net.frame.encode_ns", &mut || {
        ns_per_call(20_000, || {
            buf.clear();
            encode_frame_into(&net_frame, &mut buf);
            std::hint::black_box(buf.len());
        })
    });
    probe("net.frame.decode_ns", &mut || {
        ns_per_call(20_000, || {
            std::hint::black_box(decode_frame_slice(std::hint::black_box(&buf)).is_ok());
        })
    });
    let encoded = Bytes::from(buf.to_vec());
    probe("net.ackwin.push_ack_ns", &mut || {
        // The data plane's cadence: window 256, retention 1024, one
        // cumulative ack per 64 frames.
        let mut win = AckWindow::new(256, 1024);
        ns_per_call(64 * 300, || {
            let seq = win.push(encoded.clone());
            if seq.is_multiple_of(64) {
                win.ack_delivered(seq);
                win.ack_durable(seq);
            }
        })
    });
    probe("net.reader.next_frame_ns", &mut || {
        // 64 frames per fill, fed from memory: cut, CRC-check, hand out.
        let mut wire = Vec::new();
        for _ in 0..64 {
            wire.extend_from_slice(&encoded);
        }
        let mut reader = PooledReader::new(BufferPool::default());
        ns_per_call(300, || {
            let mut src = &wire[..];
            while !src.is_empty() {
                reader.fill(&mut src).expect("memory reads cannot fail");
                while let Ok(Some(f)) = reader.next_frame() {
                    std::hint::black_box(f.seq);
                }
            }
        }) / 64.0
    });
    probe("net.pool.lease_ns", &mut || {
        let pool = BufferPool::default();
        ns_per_call(20_000, || {
            std::hint::black_box(pool.lease(64 * 1024).capacity());
        })
    });
    probe("net.token_bucket.acquire_ns", &mut || {
        let mut bucket = TokenBucket::new(1e12, 4096.0);
        let mut now = 0.0f64;
        ns_per_call(20_000, || {
            now += 1e-6;
            std::hint::black_box(bucket.acquire(1_000, now));
        })
    });
    let wake = reactor_wake();
    probe("net.reactor.wake_us_p50", &mut || wake.percentile(50.0) / 1e3);
    probe("net.reactor.wake_us_p99", &mut || wake.percentile(99.0) / 1e3);
    // Loopback streams are short and the box is noisy: three each, and
    // the median stream's pair of numbers.
    let middle = |f: &dyn Fn() -> (f64, f64)| {
        let mut runs = [f(), f(), f()];
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        runs[1]
    };
    probe("net.loopback.raw_pps_256B", &mut || {
        middle(&|| loopback_raw(LOOPBACK_PACKETS, 256, seed)).0
    });
    let mut raw_allocs = 0.0;
    probe("net.loopback.raw_pps_1KiB", &mut || {
        let (pps, allocs) = middle(&|| loopback_raw(LOOPBACK_PACKETS, 1024, seed));
        raw_allocs = allocs;
        pps
    });
    probe("net.loopback.allocs_per_pkt", &mut || raw_allocs);
    let mut stall = 0.0;
    probe("net.loopback.acked_pps_1KiB", &mut || {
        let (pps, stalled) = middle(&|| loopback_acked(LOOPBACK_PACKETS, 1024, seed));
        stall = stalled;
        pps
    });
    probe("net.loopback.stall_s", &mut || stall);

    // ---- gates-engine / gates-sim: a hop and an event ----------------
    let chain = RelayParams {
        packets: 150_000,
        rate: 0.0,
        payload: 256,
        seed,
        traced: false,
        settle: false,
    };
    let mut threaded = (0.0, 0.0);
    probe("engine.threaded.relay_pps", &mut || {
        threaded = threaded_chain(chain);
        threaded.0
    });
    probe("engine.threaded.hop_ns", &mut || threaded.1);
    probe("engine.des.event_ns", &mut || des_chain(chain));
    probe("sim.simulation.event_ns", &mut || bare_simulation(400_000));

    // ---- gates-streams / gates-apps: the work inside process() -------
    let zipf = ZipfGenerator::new(2_000, 1.4);
    probe("streams.zipf.sample_ns", &mut || {
        let mut rng = seeded(seed);
        ns_per_call(50_000, || {
            std::hint::black_box(zipf.sample(&mut rng));
        })
    });
    probe("streams.counting_samples.insert_ns", &mut || {
        let (mut rng, mut coin) = (seeded(seed), seeded(seed ^ 1));
        let mut sample = CountingSamples::new(100);
        ns_per_call(50_000, || sample.insert(zipf.sample(&mut rng), &mut coin))
            - ns_per_call(50_000, || {
                std::hint::black_box(zipf.sample(&mut rng));
            })
    });
    probe("apps.count_samps.summarizer_ns_per_pkt", &mut || {
        stage_ns_per_packet(Mode::Distributed { k: 100.0 }, "summarizer-0", seed)
    });
    probe("apps.count_samps.collector_ns_per_pkt", &mut || {
        stage_ns_per_packet(Mode::Centralized, "collector", seed)
    });

    spans.close(root);
    out
}

// ---------------------------------------------------------------------
// gates-net: reactor wake latency
// ---------------------------------------------------------------------

/// A source whose only event is being notified: it stamps the moment
/// `service` runs and hands it back.
struct WakeSource {
    fd: TcpStream,
    served: mpsc::Sender<u64>,
}

impl Source for WakeSource {
    fn fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
    fn service(&mut self, ready: Ready, _now: Instant) -> Directive {
        if ready.notified {
            let _ = self.served.send(sys::now_ns());
        }
        Directive::read()
    }
}

/// `Reactor::notify` → `Source::service`, from an idle reactor (the
/// handoff a stage pays to reach a parked sender).
fn reactor_wake() -> Histogram {
    let mut hist = Histogram::default();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (fd, _) = listener.accept().expect("accept");
    let reactor = Reactor::spawn("ledger-wake").expect("spawn reactor");
    let (tx, rx) = mpsc::channel();
    let token = reactor.register(Box::new(WakeSource { fd, served: tx }));
    // Registration services the source once, as if notified.
    let _ = rx.recv_timeout(Duration::from_secs(5));
    for i in 0..2_200 {
        // Let the reactor go back to sleep in epoll_wait first.
        std::thread::sleep(Duration::from_micros(150));
        let t0 = sys::now_ns();
        reactor.notify(token);
        let Ok(t1) = rx.recv_timeout(Duration::from_secs(5)) else { break };
        if i >= 200 {
            hist.record(t1.saturating_sub(t0));
        }
    }
    reactor.shutdown();
    hist
}

// ---------------------------------------------------------------------
// gates-net: loopback throughput (the netperf and delivery shapes)
// ---------------------------------------------------------------------

/// Receive side of the raw shape: a reactor source cutting frames out of
/// pool buffers, as a worker's data in-edge does.
struct RecvSource {
    stream: TcpStream,
    reader: PooledReader,
    got: Arc<AtomicU64>,
    done: Arc<AtomicBool>,
}

impl Source for RecvSource {
    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
    fn service(&mut self, ready: Ready, _now: Instant) -> Directive {
        if !(ready.readable || ready.notified) {
            return Directive::read();
        }
        loop {
            while let Ok(Some(frame)) = self.reader.next_frame() {
                if frame.kind == FrameKind::Eos {
                    self.done.store(true, Ordering::Release);
                    return Directive::close();
                }
                let p = Packet::from_frame(&frame).expect("probe frames decode");
                std::hint::black_box(p.records);
                self.got.fetch_add(1, Ordering::Relaxed);
            }
            match self.reader.fill(&mut (&self.stream)) {
                Ok(0) => {
                    self.done.store(true, Ordering::Release);
                    return Directive::close();
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Directive::read(),
                Err(e) => panic!("loopback read: {e}"),
            }
        }
    }
}

fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let sender = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (receiver, _) = listener.accept().expect("accept");
    (sender, receiver)
}

/// Frames coalesced per flush, as the dist sender loop does.
const SEND_BATCH: u64 = 32;
/// Packets per loopback stream.
const LOOPBACK_PACKETS: u64 = 150_000;

/// `n` packets, batch-coalesced, into a reactor-driven pooled receiver.
/// Returns `(packets/s, allocations/packet)` — allocations across the
/// whole process while the stream ran, after a warm-up tenth.
fn loopback_raw(n: u64, len: usize, seed: u64) -> (f64, f64) {
    let (sender, receiver) = loopback_pair();
    let (got, done) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicBool::new(false)));
    let reactor = Reactor::spawn("ledger-loopback").expect("spawn reactor");
    reactor.register(Box::new(RecvSource {
        stream: receiver,
        reader: PooledReader::new(BufferPool::default()),
        got: Arc::clone(&got),
        done: Arc::clone(&done),
    }));
    let mut fs = FrameStream::new(sender);
    let body = payload(len, seed);
    let warmup = n / 10;
    let (mut t0, mut allocs0) = (Instant::now(), 0);
    for seq in 0..n {
        if seq == warmup {
            (t0, allocs0) = (Instant::now(), sys::allocs());
        }
        Packet::data(1, seq, 16, body.clone()).encode_into(fs.queue_buffer());
        if (seq + 1).is_multiple_of(SEND_BATCH) {
            fs.flush_queued().expect("flush");
        }
    }
    Packet::eos(1, n).encode_into(fs.queue_buffer());
    fs.flush_queued().expect("final flush");
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(200));
    }
    let (secs, allocs) = (t0.elapsed().as_secs_f64(), sys::allocs() - allocs0);
    reactor.shutdown();
    assert_eq!(got.load(Ordering::Relaxed), n, "receiver must see every packet");
    let measured = (n - warmup) as f64;
    (measured / secs, allocs as f64 / measured)
}

/// The at-least-once send path over the same socket pair: link sequence
/// per frame, frame retained in an `AckWindow` until the receiver's
/// cumulative ack (one per 64 frames), sender stalling while the credit
/// window is full. Returns `(packets/s, seconds stalled on credit)`.
fn loopback_acked(n: u64, len: usize, seed: u64) -> (f64, f64) {
    let (sender, receiver) = loopback_pair();
    let done = Arc::new(AtomicBool::new(false));

    let rx_done = Arc::clone(&done);
    let ack_out = receiver.try_clone().expect("clone receiver socket");
    let rx = std::thread::spawn(move || {
        let (mut fs, mut acks) = (FrameStream::new(receiver), FrameStream::new(ack_out));
        let (mut cursor, mut got) = (0u64, 0u64);
        let mut ack = |seq| {
            let _ = acks.send(&Frame {
                kind: FrameKind::Ack,
                stream_id: 0,
                seq,
                payload: Bytes::new(),
            });
        };
        while let Ok(Some(frame)) = fs.read_frame() {
            if frame.kind == FrameKind::Eos {
                ack(cursor);
                break;
            }
            cursor = frame.seq;
            got += 1;
            if cursor.is_multiple_of(64) {
                ack(cursor);
            }
        }
        rx_done.store(true, Ordering::Release);
        got
    });

    let window = Arc::new(Mutex::new(AckWindow::new(256, 1024)));
    let (ack_window, ack_done) = (Arc::clone(&window), Arc::clone(&done));
    let ack_in = sender.try_clone().expect("clone sender socket");
    let ack_reader = std::thread::spawn(move || {
        let mut fs = FrameStream::new(ack_in);
        fs.set_read_timeout(Some(Duration::from_millis(20))).expect("read timeout");
        loop {
            match fs.read_frame() {
                Ok(Some(f)) if f.kind == FrameKind::Ack => {
                    ack_window.lock().expect("ack window lock").ack_delivered(f.seq);
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) if ack_done.load(Ordering::Acquire) => break,
                Err(_) => {}
            }
        }
    });

    let mut fs = FrameStream::new(sender);
    let body = payload(len, seed);
    let (mut sent, mut stalled) = (0u64, Duration::ZERO);
    let started = Instant::now();
    while sent < n {
        let full = {
            let mut win = window.lock().expect("ack window lock");
            let mut batch = 0;
            while sent < n && batch < SEND_BATCH && !win.is_full() {
                let seq = win.next_seq();
                let buf = fs.queue_buffer();
                let at = buf.len();
                Packet::data(1, sent, 16, body.clone()).encode_into_with_seq(seq, buf);
                win.push(Bytes::from(buf[at..].to_vec()));
                sent += 1;
                batch += 1;
            }
            win.is_full()
        };
        fs.flush_queued().expect("flush");
        if full && sent < n {
            let t = Instant::now();
            std::thread::sleep(Duration::from_micros(100));
            stalled += t.elapsed();
        }
    }
    Packet::eos(1, n).encode_into(fs.queue_buffer());
    fs.flush_queued().expect("final flush");
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(200));
    }
    let secs = started.elapsed().as_secs_f64();
    assert_eq!(rx.join().expect("receiver thread"), n, "receiver must see every packet");
    drop(fs);
    ack_reader.join().expect("ack reader thread");
    (n as f64 / secs, stalled.as_secs_f64())
}

// ---------------------------------------------------------------------
// gates-engine / gates-sim
// ---------------------------------------------------------------------

const CHAIN_HOPS: f64 = 3.0;

fn chain_on_cluster(p: RelayParams) -> (Topology, gates_grid::DeploymentPlan) {
    let topology = stages::relay_chain(p, 2);
    let registry = ResourceRegistry::uniform_cluster(&["gen", "mid", "out"]);
    let plan = Deployer::new().deploy(&topology, &registry).expect("chain places");
    (topology, plan)
}

/// Source → relay → relay → sink on the threaded engine with two
/// executor threads: `(packets/s, ns per packet per hop)` — executor
/// activation, stage queue and `StageApi`, with no sockets.
fn threaded_chain(p: RelayParams) -> (f64, f64) {
    let (topology, plan) = chain_on_cluster(p);
    let engine = ThreadedEngine::new(topology, &plan, RunOptions::default().cores(2))
        .expect("chain validates");
    let t = Instant::now();
    let report = engine.run().expect("threaded chain runs");
    let secs = t.elapsed().as_secs_f64();
    let delivered = report.stage("sink").map_or(0, |s| s.packets_in).max(1) as f64;
    (delivered / secs, secs * 1e9 / delivered / CHAIN_HOPS)
}

/// The same chain in virtual time: wall nanoseconds per dispatched event.
fn des_chain(p: RelayParams) -> f64 {
    let (topology, plan) = chain_on_cluster(p);
    let mut engine =
        DesEngine::new(topology, &plan, RunOptions::default()).expect("chain validates");
    let t = Instant::now();
    let report = engine.run_to_completion();
    t.elapsed().as_nanos() as f64 / report.events.max(1) as f64
}

/// An actor that sends itself a message until told enough.
struct Ticker(u64);

impl Actor<()> for Ticker {
    fn on_event(&mut self, _event: Event<()>, ctx: &mut Context<'_, ()>) {
        if self.0 > 0 {
            self.0 -= 1;
            ctx.send(ctx.self_id(), (), SimDuration::from_micros(1));
        }
    }
}

/// The bare discrete-event kernel: ns per event with a trivial actor.
fn bare_simulation(events: u64) -> f64 {
    let mut sim = Simulation::new();
    sim.add_actor(Ticker(events));
    let t = Instant::now();
    sim.run();
    t.elapsed().as_nanos() as f64 / sim.events_processed().max(1) as f64
}

// ---------------------------------------------------------------------
// gates-apps: one stage's process(), driven by hand
// ---------------------------------------------------------------------

/// Nanoseconds per 100-record packet in `stage`'s `process()`, the
/// processor obtained through the public `StageSpec::instantiate` and
/// driven with a bare `StageApi`.
fn stage_ns_per_packet(mode: Mode, stage: &str, seed: u64) -> f64 {
    let params = CountSampsParams {
        sources: 1,
        mode,
        flush_every: cs_summ::FLUSH_EVERY,
        seed,
        ..Default::default()
    };
    let (topology, _handles) = count_samps::build(&params);
    let id = topology.stage_by_name(stage).expect("count-samps has this stage");
    let mut processor = topology.stages()[id.index()].instantiate();
    let mut api = StageApi::new();
    processor.on_start(&mut api);

    let zipf = ZipfGenerator::new(params.zipf_n, params.zipf_s);
    let mut rng = seeded(seed);
    let packets: Vec<Packet> = (0..512u64)
        .map(|seq| {
            let mut w = PayloadWriter::with_capacity(800);
            for _ in 0..100 {
                w.put_u64(zipf.sample(&mut rng));
            }
            Packet::data(0, seq, 100, w.finish())
        })
        .collect();
    let mut next = 0;
    ns_per_call(2_000, || {
        processor.process(packets[next % packets.len()].clone(), &mut api);
        std::hint::black_box(api.take_emitted().len());
        next += 1;
    })
}
