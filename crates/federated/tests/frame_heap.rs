//! Heap cost of the frames a socket server reads.
//!
//! A server caps every session's frames at the largest frame the protocol
//! can send it at its model's size, and its connections at two per roster
//! client, so what hostile peers can make it hold is bounded by
//! the roster and the model, not by what they declare or stream. An
//! honest frame is read into one buffer of its declared length, and an
//! upload stays that frame until the round's fold reads it: its payload
//! is never copied out, and a Quant8 payload is folded from its bytes, so
//! a round holds each client's payload, not 8 B per parameter. This
//! binary installs a counting global allocator, so its tests take one
//! lock and never overlap; peers driven from the test run on threads the
//! counter leaves out.

use evfad_federated::compression::QuantizedUpdate;
use evfad_federated::framing::{write_frame, FrameDecoder, MAX_FRAME_BYTES};
use evfad_federated::socket::SocketServerConfig;
use evfad_federated::wire::{self, BytesMut, Message};
use evfad_federated::{CompressionMode, FederatedConfig, SocketServer};
use evfad_nn::forecaster_model;
use evfad_tensor::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes allocated and not yet freed since the counter was armed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest value `LIVE` has held since the counter was armed.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations made since the counter was armed, and the last one's size.
static COUNT: AtomicUsize = AtomicUsize::new(0);
static LAST: AtomicUsize = AtomicUsize::new(0);
/// Armed for every thread of the process (the server's readers run on
/// threads of their own).
static ALL_THREADS: AtomicBool = AtomicBool::new(false);

/// Sizes of the allocations of at least [`BUFFER_BYTES`] made since the
/// counter was armed — the buffers — in order, up to the log's length.
const BUFFER_BYTES: usize = 1 << 10;
static BUFFERS: [AtomicUsize; 256] = [const { AtomicUsize::new(0) }; 256];
static LOGGED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// A test-driven peer: never counted, armed or not.
    static PEER: Cell<bool> = const { Cell::new(false) };
}

/// One test at a time: both read the process-wide counters.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

fn armed() -> bool {
    (ALL_THREADS.load(Ordering::Relaxed) && !PEER.with(Cell::get)) || ARMED.with(Cell::get)
}

fn grow(bytes: usize) {
    if armed() {
        COUNT.fetch_add(1, Ordering::Relaxed);
        LAST.store(bytes, Ordering::Relaxed);
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
        if bytes >= BUFFER_BYTES {
            if let Some(slot) = BUFFERS.get(LOGGED.fetch_add(1, Ordering::Relaxed)) {
                slot.store(bytes, Ordering::Relaxed);
            }
        }
    }
}

fn shrink(bytes: usize) {
    if armed() {
        // Saturating: a block allocated before arming may be freed while
        // armed.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(bytes))
        });
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only atomics and a
// const-initialised thread-local without a destructor, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the allocation of the new block before the old one is
        // freed, as a moving reallocation holds both.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn reset() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNT.store(0, Ordering::Relaxed);
    LAST.store(0, Ordering::Relaxed);
    LOGGED.store(0, Ordering::Relaxed);
}

/// The buffers logged since the counter was armed.
fn buffers() -> Vec<usize> {
    let logged = LOGGED.load(Ordering::Relaxed);
    assert!(logged <= BUFFERS.len(), "{logged} buffers overran the log");
    BUFFERS[..logged]
        .iter()
        .map(|b| b.load(Ordering::Relaxed))
        .collect()
}

/// The paper's LSTM(50) forecaster: an 87 kB `EVFD` record.
fn paper_model() -> evfad_nn::Sequential {
    forecaster_model(50, 1)
}

/// An `Update` envelope from `client_id` carrying `payload`.
fn update(client_id: &str, payload: bytes::Bytes) -> BytesMut {
    let mut envelope = BytesMut::new();
    let msg = Message::Update {
        round: 0,
        client_id: client_id.into(),
        sample_count: 8,
        train_loss: 0.5,
        payload,
    };
    wire::encode_message(&mut envelope, &msg);
    envelope
}

/// The largest frame the server can take at this model, computed here
/// from the codec: an `Update` whose `EVQ8` payload has every value a
/// special.
fn session_cap(weights: &[Matrix], client_id: &str) -> usize {
    let specials: Vec<Matrix> = weights
        .iter()
        .map(|m| Matrix::from_vec(m.rows(), m.cols(), vec![f64::NAN; m.len()]))
        .collect();
    update(
        client_id,
        wire::encode_quantized(&QuantizedUpdate::quantize(&specials)),
    )
    .len()
}

/// An honest upload's frame costs the reader one allocation, of exactly
/// its declared length, before the envelope is decoded.
#[test]
fn an_honest_upload_is_one_allocation_of_its_declared_length() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let weights = paper_model().weights();
    let envelope = update("z102", wire::encode_weights(&weights));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let sender = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, &envelope).expect("write");
        envelope.len()
    });
    let (mut stream, _) = listener.accept().expect("accept");
    let mut decoder = FrameDecoder::with_cap(session_cap(&weights, "z102"));

    reset();
    ARMED.with(|a| a.set(true));
    let frame = decoder.read_frame(&mut stream);
    ARMED.with(|a| a.set(false));
    let (count, last) = (COUNT.load(Ordering::Relaxed), LAST.load(Ordering::Relaxed));

    let declared = sender.join().expect("sender");
    let frame = frame.expect("read").expect("a frame");
    assert_eq!(frame.len(), declared);
    assert!(declared > 87_000, "the paper model's update: {declared} B");
    assert_eq!(
        (count, last),
        (1, declared),
        "allocations before decode, and the last one's size"
    );
    assert!(wire::decode_message(&frame).is_ok());
}

/// Sixteen peers each declare a `MAX_FRAME_BYTES` frame and stream 1 MiB
/// of it at a server for two clients. Whatever the server accepts, reads
/// and refuses meanwhile, its heap never holds more than a full frame on
/// every connection it may keep.
#[test]
fn hostile_frames_cost_the_server_at_most_its_connection_and_frame_caps() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const PEERS: usize = 16;
    static CHUNK: [u8; 64 << 10] = [0; 64 << 10];
    let roster = vec!["z102".to_string(), "z105".to_string()];
    let template = paper_model();
    let bound = 2 * roster.len() * session_cap(&template.weights(), "z102");
    let cfg = SocketServerConfig::new(FederatedConfig::default(), roster);
    let server = SocketServer::bind("127.0.0.1:0", template, cfg).expect("bind");
    let addr = server.local_addr();

    reset();
    ALL_THREADS.store(true, Ordering::Relaxed);
    let mut peers = Vec::with_capacity(PEERS);
    for _ in 0..PEERS {
        let mut peer = TcpStream::connect(addr).expect("connect");
        let header = (MAX_FRAME_BYTES as u32).to_le_bytes();
        // A refused peer's writes fail once the server has closed it.
        if peer.write_all(&header).is_ok() {
            for _ in 0..(1 << 20) / CHUNK.len() {
                if peer.write_all(&CHUNK).is_err() {
                    break;
                }
            }
        }
        peers.push(peer);
    }
    // Every reader is joined, with every peer still connected.
    drop(server);
    ALL_THREADS.store(false, Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);
    drop(peers);

    assert!(
        peak <= bound,
        "server heap peak {peak} B above 2 connections per client x the frame cap = {bound} B"
    );
}

/// A one-round federation of `roster` over `compression`, the paper's
/// model, FedAvg.
fn one_round_server(roster: &[String], compression: CompressionMode) -> SocketServer {
    let cfg = FederatedConfig {
        rounds: 1,
        epochs_per_round: 1,
        compression,
        ..FederatedConfig::default()
    };
    let cfg = SocketServerConfig::new(cfg, roster.to_vec());
    SocketServer::bind("127.0.0.1:0", paper_model(), cfg).expect("bind")
}

/// The uplink payload client `seed` uploads under `compression`.
fn payload(compression: CompressionMode, seed: u64) -> bytes::Bytes {
    let weights = forecaster_model(50, seed).weights();
    match compression {
        CompressionMode::None => wire::encode_weights(&weights),
        CompressionMode::Quant8 => wire::encode_quantized(&QuantizedUpdate::quantize(&weights)),
    }
}

/// Blocks until the next message on `stream`.
fn recv(stream: &mut TcpStream) -> Message {
    let frame = FrameDecoder::new().read_frame(stream).expect("read");
    wire::decode_message(&frame.expect("a frame")).expect("a message")
}

/// An honest client without a model, on a thread the counter leaves out:
/// handshakes, uploads `envelope` when asked to train, and waits for the
/// run's `Done`. `upload` runs on the peer's thread right before and after
/// the upload, from the write of its frame to the arrival of `Done`.
fn peer(
    addr: SocketAddr,
    id: String,
    envelope: BytesMut,
    upload: impl Fn(bool) + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        PEER.with(|p| p.set(true));
        let mut control = TcpStream::connect(addr).expect("connect");
        let mut hello = BytesMut::new();
        wire::encode_message(&mut hello, &Message::Hello { client_id: id });
        write_frame(&mut control, &hello).expect("hello");
        assert!(matches!(recv(&mut control), Message::Welcome { .. }));
        assert!(matches!(recv(&mut control), Message::TrainRequest { .. }));
        let mut conn = TcpStream::connect(addr).expect("connect");
        upload(true);
        write_frame(&mut conn, &envelope).expect("update");
        assert!(matches!(recv(&mut conn), Message::Ack { round: 0 }));
        drop(conn);
        assert!(matches!(recv(&mut control), Message::Done { .. }));
        upload(false);
    })
}

/// The `Update` envelope of client `id`'s upload in round 0.
fn upload_envelope(id: &str, compression: CompressionMode, seed: u64) -> BytesMut {
    update(id, payload(compression, seed))
}

/// From the write of one LSTM(50) upload's frame to the end of the round,
/// the server copies no payload out of its frame, and under Quant8 it
/// builds neither an owned quantized update nor a matrix per tensor: the
/// only tensor-sized buffers are the FedAvg accumulator's (and, under
/// None, the one decode of the `EVFD` payload for the dense fold). The
/// round's `Done` encodes the new global straight into the envelope.
#[test]
fn an_upload_reaches_the_fold_without_a_copy_of_its_payload() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let weights = paper_model().weights();
    // The LSTM's 51 x 200 kernel and 1 x 200 bias, the dense 50 x 10
    // kernel: the tensors of at least a buffer's f64 bytes.
    let tensor_bytes: Vec<usize> = weights
        .iter()
        .map(|m| m.len() * 8)
        .filter(|&b| b >= BUFFER_BYTES)
        .collect();
    assert_eq!(tensor_bytes, [81_600, 1_600, 4_000]);
    let roster = vec!["z102".to_string()];
    for (compression, decodes, codes) in [
        (CompressionMode::None, 1, 0),
        (CompressionMode::Quant8, 0, 0),
    ] {
        let mut server = one_round_server(&roster, compression);
        let envelope = upload_envelope("z102", compression, 7);
        let payload_len = payload(compression, 7).len();
        let arm = |on: bool| {
            if on {
                reset();
            }
            ALL_THREADS.store(on, Ordering::Relaxed);
        };
        let client = peer(server.local_addr(), "z102".into(), envelope, arm);
        server.run().expect("one round");
        client.join().expect("peer");
        let (count, log) = (COUNT.load(Ordering::Relaxed), buffers());
        let total: usize = log.iter().sum();
        eprintln!(
            "{compression}: {count} allocations, buffers {log:?} ({total} B), peak {} B",
            PEAK.load(Ordering::Relaxed)
        );
        let sized = |bytes: usize| log.iter().filter(|&&b| b == bytes).count();
        assert_eq!(
            sized(payload_len),
            0,
            "{compression}: payload-sized buffers"
        );
        for &bytes in &tensor_bytes {
            assert_eq!(
                sized(bytes),
                1 + decodes,
                "{compression}: buffers of a {bytes}-byte tensor"
            );
        }
        // The codes of the 51 x 200 kernel, as an owned update holds them.
        assert_eq!(sized(51 * 200), codes, "{compression}: code buffers");
    }
}

/// Peak server heap over a whole Quant8 run of one round with `clients`
/// honest peers.
fn quant8_round_peak(clients: usize) -> usize {
    let roster: Vec<String> = (0..clients).map(|i| format!("z{i:03}")).collect();
    let mut server = one_round_server(&roster, CompressionMode::Quant8);
    let addr = server.local_addr();
    let peers: Vec<_> = roster
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let envelope = upload_envelope(id, CompressionMode::Quant8, i as u64);
            peer(addr, id.clone(), envelope, |_| {})
        })
        .collect();
    reset();
    ALL_THREADS.store(true, Ordering::Relaxed);
    let run = server.run();
    ALL_THREADS.store(false, Ordering::Relaxed);
    run.expect("one round");
    for p in peers {
        p.join().expect("peer");
    }
    PEAK.load(Ordering::Relaxed)
}

/// The heap a Quant8 round holds grows with its clients by about one
/// upload frame each (11 136 B for LSTM(50)), not by a decoded model
/// (87 426 B of f64s): going from 3 clients to 16 (32 connections) adds
/// at most a frame and 4 KiB of connection bookkeeping per client.
#[test]
fn a_quant8_round_holds_its_payloads_not_their_decodes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let frame = upload_envelope("z000", CompressionMode::Quant8, 0).len();
    let (small, large) = (quant8_round_peak(3), quant8_round_peak(16));
    let per_client = large.saturating_sub(small) / 13;
    eprintln!("peak heap: 3 clients {small} B, 16 clients {large} B, {per_client} B a client");
    assert!(
        per_client <= frame + 4096,
        "each client beyond 3 added {per_client} B to the round's heap; its upload frame is {frame} B"
    );
}
