//! Heap cost of the frames a socket server reads.
//!
//! A server caps every session's frames at the largest frame the protocol
//! can send it at its model's size, and its connections at two per roster
//! client, so what hostile peers can make it hold is bounded by
//! the roster and the model, not by what they declare or stream. An
//! honest frame is read into one buffer of its declared length. This
//! binary installs a counting global allocator, so its tests take one
//! lock and never overlap.

use evfad_federated::compression::QuantizedUpdate;
use evfad_federated::framing::{write_frame, FrameDecoder, MAX_FRAME_BYTES};
use evfad_federated::socket::SocketServerConfig;
use evfad_federated::wire::{self, BytesMut, Message};
use evfad_federated::{FederatedConfig, SocketServer};
use evfad_nn::forecaster_model;
use evfad_tensor::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
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

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// One test at a time: both read the process-wide counters.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

fn armed() -> bool {
    ALL_THREADS.load(Ordering::Relaxed) || ARMED.with(Cell::get)
}

fn grow(bytes: usize) {
    if armed() {
        COUNT.fetch_add(1, Ordering::Relaxed);
        LAST.store(bytes, Ordering::Relaxed);
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
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
