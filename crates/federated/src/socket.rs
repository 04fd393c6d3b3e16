//! TCP transport for the federated protocol: the federation over real
//! sockets.
//!
//! Three layers, bottom up:
//!
//! * `SocketTransport` — a listener with an accept thread and one
//!   reader thread per connection, up to a connection cap; a connection
//!   beyond it is closed at accept with no reader. Readers read each
//!   length-prefixed frame (see [`framing`](crate::framing)) into one
//!   buffer of its declared size — one allocation, bounded by the
//!   session's frame cap — decode it into a [`Message`] whose blobs are
//!   windows of that buffer, and feed a single bounded
//!   [`mpsc::sync_channel`] event queue the server drains; a connection
//!   whose event finds the queue full is dropped. A send writes through
//!   the connection's own `Arc<TcpStream>` with the writer map unlocked.
//! * [`SocketServer`] — binds, admits the expected clients
//!   (`Hello`/`Welcome` handshake), then drives the **same**
//!   `engine` round loop as the in-process simulation
//!   through a socket-backed pool. Every protocol decision — sampling,
//!   fault admission, disposition, metering, the `min_participants`
//!   floor, aggregation — executes in the shared engine, which is why
//!   the socket run's digest is byte-identical to
//!   [`FederatedSimulation`](crate::FederatedSimulation) for the same
//!   seed and config (the equivalence matrix pins it).
//! * [`SocketClient`] — connects, trains when asked, and uploads each
//!   update over a *fresh* connection per attempt with real
//!   exponential-backoff retries. Faults are acted out, not flagged:
//!   a straggler sleeps, a corrupt client corrupts its own payload
//!   before encoding, and a transient failure is a connection the
//!   server really closes mid-upload, which the client really retries.
//!
//! # Bounded memory
//!
//! Every session caps its frames at the largest frame the protocol can
//! legitimately send it at the model's size, so a peer declaring more is
//! refused after four header bytes, before anything is allocated:
//!
//! * a server receives a `Hello` or an `Update`, whose payload is at most
//!   the template's `EVQ8` worst case (every value a special; larger than
//!   its `EVFD` record, so one cap serves both compression modes), with
//!   the roster's longest id;
//! * a client receives at most a `Welcome` carrying its own template's
//!   `EVFD` weights (`Broadcast` and `Done` carry the same blob under a
//!   shorter header), or an `Abort` whose text the server cuts to
//!   `ABORT_TEXT_BYTES`.
//!
//! A server admits two connections per roster client: its control
//! connection and its one upload. An upload it refuses is closed at once;
//! one it acknowledges is left for the client to close, and any still
//! open is closed before the next round asks for uploads. A connection
//! the server closes leaves the count at once, so a client never opens an
//! upload while its previous one still counts. The event queue holds two
//! events per admitted connection, its message and its hang-up. Frame
//! buffers and queued messages are therefore bounded by the roster and
//! the model, never by what a peer declares or streams. A queued message
//! holds its frame (its blob is a window of it): one frame per event.
//!
//! # Determinism
//!
//! Arrival order over TCP is nondeterministic, so nothing protocol-
//! visible may depend on it. The engine samples participants and decides
//! faults serially by client id *before* requesting training; the pool
//! collects uploads keyed by client id and hands them back in admission
//! order; metering counts protocol payload bytes (frame and envelope
//! overhead excluded), which the client produces with the same encoders
//! the in-process path meters arithmetically. Connection-loss faults are
//! scheduled from the same [`FaultPlan`] on both paths: the server knows
//! a client's planned `Transient { failures }` and closes exactly that
//! many of its upload connections before acknowledging (or all of them,
//! when the plan exceeds the retry budget) — the client's honest retry
//! loop then reproduces the simulated attempt count on the wire.

use crate::client::{FedClient, LocalUpdate};
use crate::compression::{CompressionMode, QuantizedUpdate};
use crate::engine::{self, Admitted, PoolUpdate, Received, RoundPool};
use crate::error::FederatedError;
use crate::faults::{FaultKind, FaultPlan};
use crate::framing::{write_frame, FrameDecoder};
use crate::simulation::{FederatedConfig, FederatedOutcome};
use crate::wire::{self, Message};
use bytes::{Bytes, BytesMut};
use evfad_nn::{Sample, Sequential, TrainConfig};
use evfad_tensor::Matrix;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn transport_err(context: &str, detail: impl std::fmt::Display) -> FederatedError {
    FederatedError::Transport {
        message: format!("{context}: {detail}"),
    }
}

/// Locks `mutex`; a value behind these locks stays whole across a panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The write half of every live connection, by connection id.
type Writers = Mutex<HashMap<u64, Arc<TcpStream>>>;

/// Writes one frame on connection `conn`. The map's lock is held only to
/// take the connection's handle, never during the write.
fn write_to(writers: &Writers, conn: u64, frame: &[u8]) -> Result<(), FederatedError> {
    let stream = lock(writers)
        .get(&conn)
        .cloned()
        .ok_or_else(|| transport_err("send", format!("connection {conn} is gone")))?;
    write_frame(&mut &*stream, frame).map_err(|e| transport_err("send", e))
}

/// What the event queue delivers to whoever drains the transport.
#[derive(Debug)]
enum TransportEvent {
    /// A decoded protocol message from connection `0`'s peer.
    Message(u64, Message),
    /// The connection closed (peer hangup, server kill, or a framing /
    /// decode error, which poisons the stream beyond recovery).
    Disconnected(u64),
}

/// What one transport admits: connections at once, and payload bytes per
/// frame on each of them.
#[derive(Debug, Clone, Copy)]
struct Limits {
    connections: usize,
    frame_bytes: usize,
}

/// Listener + per-connection reader threads feeding one event queue.
///
/// Connections are identified by a monotonically increasing `u64`. The
/// transport does not know which connection belongs to which client —
/// the protocol layer learns that from `Hello` / `Update` messages. A
/// connection is live while it holds an entry in the writer map: from
/// its accept until its reader exits or the server kills it.
#[derive(Debug)]
struct SocketTransport {
    local_addr: SocketAddr,
    events: Receiver<TransportEvent>,
    writers: Arc<Writers>,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    scratch: BytesMut,
    /// Connections whose exchange is over, left for the peer to close;
    /// [`close_retired`](Self::close_retired) closes those still open.
    retired: Vec<u64>,
}

impl SocketTransport {
    /// Binds a listener and starts accepting connections immediately —
    /// clients may connect (and their `Hello`s queue) before the server
    /// starts draining events, so startup order cannot race. At most
    /// `limits.connections` are live at once, each reading frames of at
    /// most `limits.frame_bytes`, into a queue of twice as many events.
    ///
    /// # Errors
    ///
    /// [`FederatedError::Transport`] if the bind fails.
    fn bind(addr: impl ToSocketAddrs, limits: Limits) -> Result<Self, FederatedError> {
        let listener = TcpListener::bind(addr).map_err(|e| transport_err("bind", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| transport_err("local_addr", e))?;
        let (tx, events) = mpsc::sync_channel(limits.connections.saturating_mul(2));
        let writers: Arc<Writers> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let writers = Arc::clone(&writers);
            let stop = Arc::clone(&stop);
            let reader_handles = Arc::clone(&reader_handles);
            std::thread::spawn(move || {
                let mut next_id = 0u64;
                loop {
                    let (stream, _) = match listener.accept() {
                        Ok(pair) => pair,
                        Err(_) => {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            continue;
                        }
                    };
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(write_half) = stream.try_clone() else {
                        continue;
                    };
                    {
                        let mut live = lock(&writers);
                        if live.len() >= limits.connections {
                            // Over the cap: both halves drop here, which
                            // closes the connection before any reader runs.
                            continue;
                        }
                        live.insert(next_id, Arc::new(write_half));
                    }
                    let id = next_id;
                    next_id += 1;
                    let tx = tx.clone();
                    let writers = Arc::clone(&writers);
                    let frame_bytes = limits.frame_bytes;
                    let handle = std::thread::spawn(move || {
                        run_reader(stream, id, frame_bytes, &tx, &writers);
                    });
                    // Every upload attempt is a fresh connection: keep the
                    // handles of live readers only, or the list grows with
                    // rounds x clients x attempts for the server's lifetime.
                    let mut handles = lock(&reader_handles);
                    handles.retain(|h| !h.is_finished());
                    handles.push(handle);
                }
            })
        };

        Ok(Self {
            local_addr,
            events,
            writers,
            stop,
            accept_handle: Some(accept_handle),
            reader_handles,
            scratch: BytesMut::new(),
            retired: Vec::new(),
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Encodes `msg` once and [`write_all`](Self::write_all)s it to `conns`.
    fn send_all(&mut self, conns: &[u64], msg: &Message) -> Result<(), FederatedError> {
        wire::encode_message(&mut self.scratch, msg);
        self.write_all(conns)
    }

    /// Writes the envelope in the scratch buffer to each of `conns`, in
    /// order, as a vectored header+payload write: no framed buffer is
    /// assembled, and warm sends allocate nothing.
    ///
    /// # Errors
    ///
    /// [`FederatedError::Transport`] at the first connection that is gone
    /// or whose write fails.
    fn write_all(&self, conns: &[u64]) -> Result<(), FederatedError> {
        conns
            .iter()
            .try_for_each(|&conn| write_to(&self.writers, conn, &self.scratch))
    }

    /// Forcibly closes a connection **without** any farewell message —
    /// from the peer's side this is a connection lost mid-exchange. The
    /// connection leaves the live count at once; its reader thread
    /// observes the shutdown and emits [`TransportEvent::Disconnected`].
    /// A write blocked on the connection fails.
    fn kill(&self, conn: u64) {
        if let Some(stream) = lock(&self.writers).remove(&conn) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Marks a connection whose exchange is over — an acknowledged upload
    /// — for the peer to close. It counts as live until its reader sees
    /// the peer hang up or [`close_retired`](Self::close_retired) runs.
    fn retire(&mut self, conn: u64) {
        self.retired.push(conn);
    }

    /// Closes every retired connection its peer has left open. A peer
    /// closes right after its `Ack`, so this usually finds none, and
    /// closing them here keeps the shutdown off the path from an
    /// upload to its `Ack`.
    fn close_retired(&mut self) {
        for conn in std::mem::take(&mut self.retired) {
            self.kill(conn);
        }
    }

    /// Blocks for the next event, up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`FederatedError::Transport`] on timeout or when the transport
    /// threads have all exited.
    fn recv(&self, timeout: Duration) -> Result<TransportEvent, FederatedError> {
        self.events.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => {
                transport_err("recv", format!("no event within {timeout:?}"))
            }
            RecvTimeoutError::Disconnected => transport_err("recv", "transport stopped"),
        })
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        // Shut every live connection so reader threads hit EOF.
        for (_, stream) in lock(&self.writers).drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in lock(&self.reader_handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Per-connection reader: socket bytes → frames → messages → events.
/// Each frame is read into one buffer of its declared length, at most
/// `frame_bytes`. Any framing or decode error poisons the stream (there
/// is no resynchronisation point in a length-prefixed protocol), and a
/// message the full event queue cannot take marks its connection as one
/// the server cannot keep up with: either way the connection is dropped.
/// The hang-up event is queued only if there is room for it.
fn run_reader(
    mut stream: TcpStream,
    id: u64,
    frame_bytes: usize,
    tx: &SyncSender<TransportEvent>,
    writers: &Writers,
) {
    let mut decoder = FrameDecoder::with_cap(frame_bytes);
    while let Ok(Some(frame)) = decoder.read_frame(&mut stream) {
        let Ok(msg) = wire::decode_frame(&Bytes::from(frame)) else {
            break;
        };
        if tx.try_send(TransportEvent::Message(id, msg)).is_err() {
            break;
        }
    }
    if let Some(s) = lock(writers).remove(&id) {
        let _ = s.shutdown(Shutdown::Both);
    }
    let _ = tx.try_send(TransportEvent::Disconnected(id));
}

/// Framed, blocking message stream over one client-side connection.
struct MessageStream {
    stream: TcpStream,
    decoder: FrameDecoder,
    scratch: BytesMut,
}

impl MessageStream {
    /// Connects to `addr`, refusing any frame of more than `frame_bytes`.
    fn connect(addr: SocketAddr, frame_bytes: usize) -> Result<Self, FederatedError> {
        let stream = TcpStream::connect(addr).map_err(|e| transport_err("connect", e))?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::with_cap(frame_bytes),
            scratch: BytesMut::new(),
        })
    }

    fn send(&mut self, msg: &Message) -> Result<(), FederatedError> {
        wire::encode_message(&mut self.scratch, msg);
        write_frame(&mut self.stream, &self.scratch).map_err(|e| transport_err("send", e))
    }

    /// Blocks until one full message arrives. `Ok(None)` means the peer
    /// closed the connection cleanly between messages.
    fn recv(&mut self) -> Result<Option<Message>, FederatedError> {
        let Some(frame) = self
            .decoder
            .read_frame(&mut self.stream)
            .map_err(|e| transport_err("recv", e))?
        else {
            return Ok(None);
        };
        let msg = wire::decode_frame(&Bytes::from(frame)).map_err(|e| transport_err("recv", e))?;
        Ok(Some(msg))
    }
}

/// Refuses a malformed upload, or one of another architecture than
/// `global`'s, as a transport error before the round takes it. A None
/// payload is decoded once, for the dense fold, and dropped; a Quant8 one
/// is kept, for the fold to read.
fn check_upload(
    mode: CompressionMode,
    payload: Bytes,
    global: &[Matrix],
) -> Result<(Vec<Matrix>, Received), FederatedError> {
    let malformed = |e| transport_err("uplink payload", e);
    match mode {
        CompressionMode::None => {
            let weights = wire::decode_weights(&payload).map_err(malformed)?;
            same_shapes(|| weights.iter().map(Matrix::shape), global)?;
            Ok((weights, Received::Decoded(payload.len())))
        }
        CompressionMode::Quant8 => {
            let view = wire::quantized_view(&payload).map_err(malformed)?;
            same_shapes(|| view.tensors().map(|t| t.shape()), global)?;
            Ok((Vec::new(), Received::Quantized(payload)))
        }
    }
}

/// Refuses an upload whose tensor `shapes` are not `global`'s.
fn same_shapes<I>(shapes: impl Fn() -> I, global: &[Matrix]) -> Result<(), FederatedError>
where
    I: Iterator<Item = (usize, usize)>,
{
    let expected = || global.iter().map(Matrix::shape);
    if shapes().eq(expected()) {
        return Ok(());
    }
    let (got, want): (Vec<_>, Vec<_>) = (shapes().collect(), expected().collect());
    let shapes = format!("has tensor shapes {got:?}, the model expects {want:?}");
    Err(transport_err("uplink payload", shapes))
}

/// The longest `Abort` text a server sends; a client's frame cap leaves
/// room for this much and no more.
const ABORT_TEXT_BYTES: usize = 4 << 10;

/// Element counts of the template's tensors, in wire order.
fn tensor_lens(template: &Sequential) -> impl Iterator<Item = usize> + '_ {
    template
        .layers()
        .iter()
        .flat_map(|layer| layer.params())
        .map(Matrix::len)
}

/// Encoded length of `msg` once its one blob holds `blob_bytes` more.
fn envelope_len(msg: &Message, blob_bytes: usize) -> usize {
    let mut buf = BytesMut::new();
    wire::encode_message(&mut buf, msg);
    buf.len() + blob_bytes
}

/// The largest frame a client can legitimately send a server with this
/// template and roster: an `Update` from the longest id, carrying the
/// largest payload either encoding can give (a `Hello` is shorter).
fn server_frame_cap(template: &Sequential, roster: &[String]) -> usize {
    let longest = roster.iter().max_by_key(|id| id.len()).cloned();
    let update = Message::Update {
        round: 0,
        client_id: longest.unwrap_or_default(),
        sample_count: 0,
        train_loss: 0.0,
        payload: Bytes::new(),
    };
    envelope_len(&update, wire::quantized_max_size(tensor_lens(template)))
}

/// The largest frame a server can legitimately send a client with this
/// template: a `Welcome` carrying its `EVFD` weights, or an `Abort`.
fn client_frame_cap(template: &Sequential) -> usize {
    let welcome = Message::Welcome {
        epochs_per_round: 0,
        batch_size: 0,
        compression: CompressionMode::None,
        retry_budget: 0,
        backoff_base_seconds: 0.0,
        init_global: Bytes::new(),
    };
    let abort = Message::Abort {
        message: String::new(),
    };
    envelope_len(&welcome, wire::weights_size(tensor_lens(template)))
        .max(envelope_len(&abort, ABORT_TEXT_BYTES))
}

/// `err`'s text for an `Abort`, cut to [`ABORT_TEXT_BYTES`].
fn abort_text(err: &FederatedError) -> String {
    let mut text = err.to_string();
    text.truncate(text.floor_char_boundary(ABORT_TEXT_BYTES));
    text
}

/// Knobs for a [`SocketServer`] beyond the shared [`FederatedConfig`].
#[derive(Debug, Clone)]
pub struct SocketServerConfig {
    /// The federated schedule — identical semantics to the in-process
    /// simulation.
    pub config: FederatedConfig,
    /// Client ids to admit, **in registration order**: index in this
    /// list is the sampling index, exactly like `add_client` order in
    /// the simulation. Connections claiming other ids are dropped.
    pub expected_clients: Vec<String>,
    /// How long to wait for all expected clients to say `Hello`.
    pub handshake_timeout: Duration,
    /// Per-event wait during rounds before declaring the round hung.
    pub io_timeout: Duration,
}

impl SocketServerConfig {
    /// Defaults: 30 s handshake, 60 s per-event round timeout.
    pub fn new(config: FederatedConfig, expected_clients: Vec<String>) -> Self {
        Self {
            config,
            expected_clients,
            handshake_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(60),
        }
    }
}

/// The federation server: accepts the expected clients over TCP and runs
/// the shared round engine against their live uplinks.
#[derive(Debug)]
pub struct SocketServer {
    transport: SocketTransport,
    template: Sequential,
    cfg: SocketServerConfig,
}

impl SocketServer {
    /// Binds and starts listening. Clients may connect from this moment;
    /// their `Hello`s queue until [`SocketServer::run`] drains them.
    ///
    /// # Errors
    ///
    /// [`FederatedError::Transport`] if the bind fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        template: Sequential,
        cfg: SocketServerConfig,
    ) -> Result<Self, FederatedError> {
        let limits = Limits {
            connections: cfg.expected_clients.len().saturating_mul(2),
            frame_bytes: server_frame_cap(&template, &cfg.expected_clients),
        };
        Ok(Self {
            transport: SocketTransport::bind(addr, limits)?,
            template,
            cfg,
        })
    }

    /// The bound address to hand to clients.
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Admits every expected client, then runs the full federated
    /// schedule over the sockets.
    ///
    /// # Errors
    ///
    /// Everything [`FederatedSimulation::run`](crate::FederatedSimulation::run)
    /// can return; [`FederatedError::InvalidConfig`] for an
    /// `expected_clients` roster that names an id twice or holds one the
    /// wire cannot carry (both refused before the handshake); and
    /// [`FederatedError::Transport`] for handshake timeouts, connection
    /// loss on a control channel, or protocol violations. On any error
    /// after the handshake the server best-effort sends `Abort` to every
    /// admitted client before returning.
    pub fn run(&mut self) -> Result<FederatedOutcome, FederatedError> {
        let roster = &self.cfg.expected_clients;
        let n = roster.len();
        if n == 0 {
            return Err(FederatedError::NoClients);
        }
        for (i, id) in roster.iter().enumerate() {
            wire::check_id("expected_clients", id)?;
            if roster[..i].contains(id) {
                return Err(FederatedError::InvalidConfig {
                    field: "expected_clients".to_string(),
                    message: format!("client id {id:?} is listed twice"),
                });
            }
        }
        self.cfg.config.validate(n)?;

        let controls = self.handshake()?;
        let global = self.template.weights();
        let mut pool = SocketPool {
            transport: &mut self.transport,
            ids: &self.cfg.expected_clients,
            controls: controls.clone(),
            compression: self.cfg.config.compression,
            io_timeout: self.cfg.io_timeout,
            current_round: 0,
        };
        let outcome = engine::run_rounds(&mut pool, &self.cfg.config, global);
        if let Err(err) = &outcome {
            let abort = Message::Abort {
                message: abort_text(err),
            };
            for &conn in &controls {
                let _ = self.transport.send_all(&[conn], &abort);
            }
        }
        outcome
    }

    /// Waits for a `Hello` from every expected client, then welcomes all
    /// of them at once with the schedule values a client reads and the
    /// initial global weights.
    /// Returns the control connection of each client in registration
    /// order.
    fn handshake(&mut self) -> Result<Vec<u64>, FederatedError> {
        let deadline = Instant::now() + self.cfg.handshake_timeout;
        let mut controls: Vec<Option<u64>> = vec![None; self.cfg.expected_clients.len()];
        while controls.contains(&None) {
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| {
                    transport_err(
                        "handshake",
                        format!(
                            "{}/{} clients arrived before the timeout",
                            controls.iter().flatten().count(),
                            controls.len()
                        ),
                    )
                })?;
            match self.transport.recv(left)? {
                TransportEvent::Message(conn, Message::Hello { client_id }) => {
                    match self
                        .cfg
                        .expected_clients
                        .iter()
                        .position(|id| *id == client_id)
                    {
                        Some(i) if controls[i].is_none() => controls[i] = Some(conn),
                        // Unknown or duplicate id: not our client.
                        _ => self.transport.kill(conn),
                    }
                }
                TransportEvent::Message(conn, _) => self.transport.kill(conn),
                TransportEvent::Disconnected(conn) => {
                    if controls.contains(&Some(conn)) {
                        return Err(transport_err(
                            "handshake",
                            format!("client connection {conn} dropped before the run"),
                        ));
                    }
                }
            }
        }
        // The loop ran until every expected client held a control connection.
        let controls: Vec<u64> = controls.into_iter().flatten().collect();
        // A client learns how to train, encode and retry, and nothing else
        // of the config: not the roster, the sampling seed or the fault rules.
        let config = &self.cfg.config;
        let (retry_budget, backoff_base_seconds) = config
            .faults
            .as_ref()
            .map_or((0, 0.0), |p| (p.retry_budget, p.backoff_base_seconds));
        let welcome = Message::Welcome {
            epochs_per_round: config.epochs_per_round as u32,
            batch_size: config.batch_size as u32,
            compression: config.compression,
            retry_budget: retry_budget as u32,
            backoff_base_seconds,
            init_global: wire::encode_weights(&self.template.weights()),
        };
        self.transport.send_all(&controls, &welcome)?;
        Ok(controls)
    }
}

/// The socket-backed [`RoundPool`]: training happens in remote processes,
/// updates arrive as `Update` messages over fresh upload connections.
struct SocketPool<'a> {
    transport: &'a mut SocketTransport,
    ids: &'a [String],
    /// Control connection per client, aligned with `ids`.
    controls: Vec<u64>,
    compression: CompressionMode,
    io_timeout: Duration,
    current_round: usize,
}

/// Upload bookkeeping for one admitted client within a round.
struct PendingUpload {
    /// Total `Update` arrivals the fault plan schedules: the gate's
    /// attempts, every one but the last nacked by a close.
    expected_arrivals: usize,
    /// Whether the final arrival gets an `Ack` (false when the plan
    /// exhausts the retry budget — the client gives up unacknowledged).
    ack_last: bool,
    arrivals: usize,
    result: Option<PoolUpdate>,
}

impl RoundPool for SocketPool<'_> {
    fn client_count(&self) -> usize {
        self.ids.len()
    }

    fn client_id(&self, ci: usize) -> &str {
        &self.ids[ci]
    }

    /// One envelope a round, the global's `EVFD` record written into it,
    /// and the same bytes to every control connection.
    fn broadcast(&mut self, global: &[Matrix]) -> Result<(), FederatedError> {
        let round = Some((self.current_round + 1) as u32);
        wire::encode_global(&mut self.transport.scratch, round, global);
        self.transport.write_all(&self.controls)
    }

    fn faults_in_transit(&self) -> bool {
        true
    }

    fn round_updates(
        &mut self,
        round: usize,
        admitted: &[Admitted],
        global: &[Matrix],
    ) -> Result<Vec<PoolUpdate>, FederatedError> {
        self.current_round = round;
        // Last round's uploads leave the connection count before any
        // client is asked for its next one.
        self.transport.close_retired();
        let ids = self.ids;
        // Ask every admitted client to train, and plan its upload saga from
        // the gate's verdict: its attempts are that many arrivals, and the
        // last is acknowledged unless a transient fault exhausted the retry
        // budget.
        let mut pending: Vec<PendingUpload> = Vec::with_capacity(admitted.len());
        let mut slot_of: HashMap<&str, usize> = HashMap::with_capacity(admitted.len());
        for (slot, a) in admitted.iter().enumerate() {
            slot_of.insert(&ids[a.index], slot);
            pending.push(PendingUpload {
                expected_arrivals: a.disposition.attempts(),
                ack_last: a.keeps() || !matches!(a.fault, Some(FaultKind::Transient { .. })),
                arrivals: 0,
                result: None,
            });
            self.transport.send_all(
                &[self.controls[a.index]],
                &Message::TrainRequest {
                    round: round as u32,
                    fault: a.fault,
                },
            )?;
        }

        // Collect until every admitted client's upload saga concludes.
        // Arrival order is irrelevant: results are slotted by client.
        while pending.iter().any(|p| p.result.is_none()) {
            match self.transport.recv(self.io_timeout)? {
                TransportEvent::Message(
                    conn,
                    Message::Update {
                        round: r,
                        client_id,
                        sample_count,
                        train_loss,
                        payload,
                    },
                ) => {
                    let entry = match slot_of.get(client_id.as_str()) {
                        Some(&slot) if r as usize == round => &mut pending[slot],
                        // Stale round or a client we did not ask: drop.
                        _ => {
                            self.transport.kill(conn);
                            continue;
                        }
                    };
                    if entry.result.is_some() {
                        self.transport.kill(conn);
                        continue;
                    }
                    entry.arrivals += 1;
                    if entry.arrivals < entry.expected_arrivals {
                        // Planned connection loss mid-upload: no Ack, hard
                        // close. The client's retry/backoff loop takes it
                        // from here.
                        self.transport.kill(conn);
                        continue;
                    }
                    // Final arrival: check and keep (the fold decides
                    // Keep vs Waste; either way the payload is metered).
                    let (weights, received) = check_upload(self.compression, payload, global)?;
                    entry.result = Some(PoolUpdate {
                        update: LocalUpdate {
                            client_id,
                            weights,
                            sample_count: sample_count as usize,
                            train_loss,
                            duration: Duration::ZERO,
                            simulated_extra_seconds: 0.0,
                        },
                        received: Some(received),
                    });
                    if entry.ack_last {
                        self.transport
                            .send_all(&[conn], &Message::Ack { round: r })?;
                        self.transport.retire(conn);
                    } else {
                        // Retries exhausted by plan: the last attempt dies
                        // like the others. The payload still arrived — and
                        // still cost bandwidth — it is just never acked.
                        self.transport.kill(conn);
                    }
                }
                TransportEvent::Message(conn, _) => {
                    // Protocol violation (stray Hello, unexpected control
                    // traffic): drop the offender, not the round.
                    if self.controls.contains(&conn) {
                        return Err(transport_err(
                            "round",
                            format!("unexpected control message on connection {conn}"),
                        ));
                    }
                    self.transport.kill(conn);
                }
                TransportEvent::Disconnected(conn) => {
                    if self.controls.contains(&conn) {
                        return Err(transport_err(
                            "round",
                            format!("client control connection {conn} lost in round {round}"),
                        ));
                    }
                    // Upload connections die all the time (our own kills,
                    // client close after Ack): not an event.
                }
            }
        }
        // The loop ran until every slot held its update.
        Ok(pending.into_iter().filter_map(|p| p.result).collect())
    }

    fn finish(&mut self, global: &[Matrix]) -> Result<(), FederatedError> {
        wire::encode_global(&mut self.transport.scratch, None, global);
        self.transport.write_all(&self.controls)
    }
}

/// A live federation client: connects to a [`SocketServer`], trains on
/// request, and uploads with real retries.
#[derive(Debug)]
pub struct SocketClient {
    /// Scales every real sleep (straggler delay, retry backoff): `1.0`
    /// sleeps the plan's literal seconds, `0.0` (tests) never sleeps.
    /// Simulated-time accounting in the digest is engine-side and
    /// unaffected.
    pub time_dilation: f64,
}

impl Default for SocketClient {
    fn default() -> Self {
        Self { time_dilation: 1.0 }
    }
}

impl SocketClient {
    /// Runs the client protocol to completion and returns the final
    /// global weights from the server's `Done`.
    ///
    /// `template` must have the architecture the server aggregates; its
    /// initial weights are replaced by the server's `Welcome` payload, so
    /// every client (and the server) starts from the same initialisation
    /// — exactly like `add_client` cloning the simulation's template.
    ///
    /// # Errors
    ///
    /// [`FederatedError::InvalidConfig`] for a `client_id` the wire
    /// cannot carry, before connecting; [`FederatedError::Transport`] on
    /// connection loss, protocol violations, a server `Abort`, a `Welcome`
    /// whose backoff base is negative or not finite, or a delay too long
    /// for a `Duration`; training errors are propagated.
    pub fn run(
        &self,
        addr: SocketAddr,
        client_id: impl Into<String>,
        template: Sequential,
        samples: Vec<Sample>,
    ) -> Result<Vec<Matrix>, FederatedError> {
        let client_id = client_id.into();
        wire::check_id("client_id", &client_id)?;
        let frame_bytes = client_frame_cap(&template);
        let mut control = MessageStream::connect(addr, frame_bytes)?;
        control.send(&Message::Hello {
            client_id: client_id.clone(),
        })?;
        let (train_cfg, compression, retry, init_global) = match control.recv()? {
            Some(Message::Welcome {
                epochs_per_round,
                batch_size,
                compression,
                retry_budget,
                backoff_base_seconds,
                init_global,
            }) => {
                if !(backoff_base_seconds.is_finite() && backoff_base_seconds >= 0.0) {
                    return Err(transport_err(
                        "welcome",
                        format!("backoff base {backoff_base_seconds} s is not a delay"),
                    ));
                }
                let train_cfg = TrainConfig {
                    epochs: epochs_per_round as usize,
                    batch_size: batch_size as usize,
                    ..TrainConfig::default()
                };
                // The client's plan holds the two retry knobs and no rule.
                let retry =
                    FaultPlan::default().with_retry(retry_budget as usize, backoff_base_seconds);
                let init =
                    wire::decode_weights(&init_global).map_err(|e| transport_err("welcome", e))?;
                (train_cfg, compression, retry, init)
            }
            Some(Message::Abort { message }) => {
                return Err(transport_err("aborted by server", message))
            }
            other => return Err(transport_err("welcome", format!("unexpected {other:?}"))),
        };

        // The last global model received, held until the next broadcast
        // replaces it. Dropping each one as soon as it is installed lets
        // local training take its chunks and the next decode grow the
        // heap: `bench_e2e`'s `socket_fed` read about 20 % more peak RSS
        // that way on a 2-CPU x86-64 host.
        let mut global = init_global;
        let mut model = template;
        model
            .set_weights(&global)
            .map_err(|e| transport_err("welcome", e))?;
        let mut client = FedClient::new(client_id.clone(), model, samples);
        // Reused across rounds: warm uploads re-fill the codec's buffers
        // instead of allocating a fresh compressed representation, and
        // encode each `Update` envelope into the same buffer.
        let mut quant = QuantizedUpdate::default();
        let mut envelope = BytesMut::new();

        loop {
            match control.recv()? {
                Some(Message::Broadcast {
                    global: encoded, ..
                }) => {
                    global = wire::decode_weights(&encoded)
                        .map_err(|e| transport_err("broadcast", e))?;
                    client.receive_global(&global)?;
                }
                Some(Message::TrainRequest { round, fault }) => {
                    let update = client.train_local(&train_cfg)?;
                    let mut weights = update.weights;
                    // Act the fault out for real: sleep the straggler
                    // delay, corrupt the payload before encoding.
                    // Transient failures need no act — the server closes
                    // our upload connections and the retry loop below
                    // responds honestly.
                    match fault {
                        Some(FaultKind::Straggler { delay_seconds }) => {
                            self.sleep(delay_seconds)?;
                        }
                        Some(FaultKind::Corrupt { corruption }) => {
                            corruption.apply(&mut weights);
                        }
                        _ => {}
                    }
                    // The encoder the in-process fold meters with, over the
                    // same (post-fault) weights: the same length on the wire.
                    let payload = match compression {
                        CompressionMode::None => wire::encode_weights(&weights),
                        CompressionMode::Quant8 => {
                            QuantizedUpdate::quantize_into(&weights, &mut quant);
                            wire::encode_quantized(&quant)
                        }
                    };
                    let msg = Message::Update {
                        round,
                        client_id: client_id.clone(),
                        sample_count: update.sample_count as u64,
                        train_loss: update.train_loss,
                        payload,
                    };
                    wire::encode_message(&mut envelope, &msg);
                    self.upload_with_retries(addr, frame_bytes, &envelope, &retry)?;
                }
                Some(Message::Done { global: encoded }) => {
                    let final_global =
                        wire::decode_weights(&encoded).map_err(|e| transport_err("done", e))?;
                    client.receive_global(&final_global)?;
                    return Ok(final_global);
                }
                Some(Message::Abort { message }) => {
                    return Err(transport_err("aborted by server", message))
                }
                Some(other) => {
                    return Err(transport_err("control", format!("unexpected {other:?}")))
                }
                None => return Err(transport_err("control", "server closed the connection")),
            }
        }
    }

    /// Uploads the encoded `Update` envelope over a fresh connection per
    /// attempt, retrying with exponential backoff when the connection dies
    /// before the `Ack` — up to `retry.retry_budget` retries, after which
    /// the client gives up (the fault plan's retries-exhausted outcome; not
    /// a client error). Every attempt writes the same bytes.
    fn upload_with_retries(
        &self,
        addr: SocketAddr,
        frame_bytes: usize,
        envelope: &[u8],
        retry: &FaultPlan,
    ) -> Result<(), FederatedError> {
        let max_attempts = retry.retry_budget + 1;
        for attempt in 0..max_attempts {
            if self.upload_once(addr, frame_bytes, envelope).is_ok() {
                return Ok(());
            }
            if attempt + 1 < max_attempts {
                self.sleep(retry.backoff_step_seconds(attempt))?;
            }
        }
        Ok(())
    }

    /// One upload attempt: connect, send, block for the `Ack`. Any
    /// connection loss before the ack is a failed attempt.
    fn upload_once(
        &self,
        addr: SocketAddr,
        frame_bytes: usize,
        envelope: &[u8],
    ) -> Result<(), FederatedError> {
        let mut conn = MessageStream::connect(addr, frame_bytes)?;
        write_frame(&mut conn.stream, envelope).map_err(|e| transport_err("send", e))?;
        match conn.recv()? {
            Some(Message::Ack { .. }) => Ok(()),
            other => Err(transport_err("upload", format!("no ack, got {other:?}"))),
        }
    }

    /// Sleeps `seconds` scaled by the dilation. A delay no `Duration` can
    /// hold (≥ about 1.8e19 s, or `+∞` once `base · 2^attempt` overflows)
    /// is a typed error, not a panic: a plan that validates or a hostile
    /// server can ask for one.
    fn sleep(&self, seconds: f64) -> Result<(), FederatedError> {
        let scaled = seconds * self.time_dilation;
        if scaled > 0.0 {
            let delay = Duration::try_from_secs_f64(scaled)
                .map_err(|e| transport_err("sleep", format!("{scaled} s: {e}")))?;
            std::thread::sleep(delay);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::MAX_FRAME_BYTES;
    use std::io::{Read, Write};

    fn loopback() -> SocketTransport {
        let limits = Limits {
            connections: 64,
            frame_bytes: MAX_FRAME_BYTES,
        };
        SocketTransport::bind("127.0.0.1:0", limits).expect("bind")
    }

    /// A transport admitting `connections` at once, frames of ≤ 64 bytes.
    fn capped(connections: usize) -> SocketTransport {
        let limits = Limits {
            connections,
            frame_bytes: 64,
        };
        SocketTransport::bind("127.0.0.1:0", limits).expect("bind")
    }

    fn hello(transport: &SocketTransport, id: &str) -> MessageStream {
        let mut peer = MessageStream::connect(transport.local_addr(), 64).expect("connect");
        peer.send(&Message::Hello {
            client_id: id.into(),
        })
        .expect("send");
        match transport.recv(Duration::from_secs(5)).expect("event") {
            TransportEvent::Message(_, Message::Hello { client_id }) => assert_eq!(client_id, id),
            other => panic!("unexpected {other:?}"),
        }
        peer
    }

    /// A fake server answers the client's `Hello` with a header declaring
    /// one byte more than the client's cap, then some of the body, and
    /// keeps the connection open: a client that allocated and waited for
    /// that body would still be reading when the deadline passes.
    #[test]
    fn a_welcome_beyond_the_client_frame_cap_fails_the_run_unread() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let template = evfad_nn::forecaster_model(4, 3);
        let cap = client_frame_cap(&template);
        let (done, result) = mpsc::channel();
        std::thread::spawn(move || {
            let run = SocketClient { time_dilation: 0.0 }.run(addr, "a", template, Vec::new());
            let _ = done.send(run);
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let frame = FrameDecoder::new().read_frame(&mut conn).expect("hello");
        assert!(matches!(
            wire::decode_message(&frame.expect("a frame")),
            Ok(Message::Hello { .. })
        ));
        conn.write_all(&(cap as u32 + 1).to_le_bytes())
            .expect("header");
        conn.write_all(&[0u8; 1024]).expect("body bytes");
        let err = result
            .recv_timeout(Duration::from_secs(10))
            .expect("the client refuses the header, not waits for its body")
            .unwrap_err();
        let expected = format!("recv: frame of {} bytes exceeds the cap of {cap}", cap + 1);
        assert!(
            matches!(&err, FederatedError::Transport { message } if *message == expected),
            "{err}"
        );
    }

    #[test]
    fn a_connection_beyond_the_cap_is_closed_without_a_reader() {
        let transport = capped(2);
        let mut admitted = vec![hello(&transport, "a"), hello(&transport, "b")];
        let mut refused = TcpStream::connect(transport.local_addr()).expect("connect");
        refused
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        match refused.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("a connection over the cap stayed open: {other:?}"),
        }
        assert_eq!(lock(&transport.reader_handles).len(), 2);
        assert!(transport.recv(Duration::from_millis(100)).is_err());
        // A hang-up frees its slot for the next connection.
        drop(admitted.pop());
        match transport.recv(Duration::from_secs(5)).expect("event") {
            TransportEvent::Disconnected(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        hello(&transport, "c");
    }

    /// The queue holds two events per connection: with one connection,
    /// a third message finds it full and its connection is dropped, and
    /// the hang-up finds no room either.
    #[test]
    fn a_message_the_full_queue_cannot_take_drops_its_connection() {
        let transport = capped(1);
        let mut peer = MessageStream::connect(transport.local_addr(), 64).expect("connect");
        for round in 0..3 {
            peer.send(&Message::Ack { round }).expect("send");
        }
        assert!(matches!(peer.recv(), Ok(None) | Err(_)));
        for round in 0..2 {
            match transport.recv(Duration::from_secs(5)).expect("event") {
                TransportEvent::Message(_, Message::Ack { round: r }) => assert_eq!(r, round),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(transport.recv(Duration::from_millis(100)).is_err());
        hello(&transport, "a");
    }

    /// A roster the server could never admit is refused before the
    /// handshake: a duplicate id, whose second slot no `Hello` can fill,
    /// and an id the wire's `u16` length prefix cannot carry.
    #[test]
    fn an_unadmittable_roster_is_refused_before_the_handshake() {
        let long = "z".repeat(70_000);
        for roster in [["a", "a"], ["a", long.as_str()]] {
            let ids = roster.iter().map(|id| id.to_string()).collect();
            let mut cfg = SocketServerConfig::new(FederatedConfig::default(), ids);
            cfg.handshake_timeout = Duration::from_millis(200);
            let mut server =
                SocketServer::bind("127.0.0.1:0", evfad_nn::forecaster_model(4, 3), cfg)
                    .expect("bind");
            let err = server.run().unwrap_err();
            assert!(
                matches!(&err, FederatedError::InvalidConfig { field, .. } if field == "expected_clients"),
                "{err}"
            );
        }
    }

    #[test]
    fn a_client_id_the_wire_cannot_carry_is_refused_before_connecting() {
        // Nothing listens at `addr` once the listener is dropped.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("bind");
        let client = SocketClient { time_dilation: 0.0 };
        let model = evfad_nn::forecaster_model(4, 3);
        let err = client
            .run(addr, "z".repeat(70_000), model, Vec::new())
            .unwrap_err();
        assert!(
            matches!(&err, FederatedError::InvalidConfig { field, .. } if field == "client_id"),
            "{err}"
        );
    }

    /// `Duration::from_secs_f64` panics past about 1.8e19 s and on `+∞`;
    /// a validated plan's straggler delay, or `base · 2^attempt`, can ask
    /// for either.
    #[test]
    fn a_delay_no_duration_can_hold_is_a_transport_error() {
        let client = SocketClient { time_dilation: 1.0 };
        for seconds in [1e300, f64::INFINITY] {
            let err = client.sleep(seconds).unwrap_err();
            assert!(
                matches!(&err, FederatedError::Transport { message } if message.starts_with("sleep")),
                "{err}"
            );
        }
        // A test client never sleeps, however long the delay.
        assert!(SocketClient { time_dilation: 0.0 }.sleep(1e300).is_ok());
    }

    #[test]
    fn a_welcome_whose_backoff_is_not_a_delay_is_refused() {
        for backoff_base_seconds in [-1.0, f64::NAN, f64::INFINITY] {
            let mut server = loopback();
            let addr = server.local_addr();
            let client = std::thread::spawn(move || {
                SocketClient { time_dilation: 0.0 }.run(
                    addr,
                    "a",
                    evfad_nn::forecaster_model(4, 3),
                    Vec::new(),
                )
            });
            let conn = match server.recv(Duration::from_secs(5)).expect("hello") {
                TransportEvent::Message(conn, Message::Hello { .. }) => conn,
                other => panic!("unexpected {other:?}"),
            };
            let welcome = Message::Welcome {
                epochs_per_round: 1,
                batch_size: 4,
                compression: CompressionMode::None,
                retry_budget: 2,
                backoff_base_seconds,
                init_global: wire::encode_weights(&evfad_nn::forecaster_model(4, 3).weights()),
            };
            server.send_all(&[conn], &welcome).expect("send");
            // Hanging up after the Welcome turns a client that accepted it
            // into a `control` error instead of a wait.
            drop(server);
            let err = client.join().expect("client thread").unwrap_err();
            assert!(
                matches!(&err, FederatedError::Transport { message } if message.starts_with("welcome: backoff base")),
                "{backoff_base_seconds}: {err}"
            );
        }
    }

    #[test]
    fn hello_crosses_the_transport() {
        let transport = loopback();
        let mut peer =
            MessageStream::connect(transport.local_addr(), MAX_FRAME_BYTES).expect("connect");
        peer.send(&Message::Hello {
            client_id: "z102".into(),
        })
        .expect("send");
        match transport.recv(Duration::from_secs(5)).expect("event") {
            TransportEvent::Message(_, Message::Hello { client_id }) => {
                assert_eq!(client_id, "z102");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn finished_readers_are_reaped_as_connections_come_and_go() {
        let transport = loopback();
        for _ in 0..64 {
            drop(TcpStream::connect(transport.local_addr()).expect("connect"));
            match transport.recv(Duration::from_secs(5)).expect("event") {
                TransportEvent::Disconnected(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        // A reader exits right after its `Disconnected`, and each accept
        // reaps the finished ones: only the last few can still be listed.
        let live = lock(&transport.reader_handles).len();
        assert!(live < 16, "{live} reader handles after 64 hang-ups");
    }

    #[test]
    fn kill_looks_like_connection_loss_to_the_peer() {
        let mut transport = loopback();
        let mut peer =
            MessageStream::connect(transport.local_addr(), MAX_FRAME_BYTES).expect("connect");
        peer.send(&Message::Hello {
            client_id: "z105".into(),
        })
        .expect("send");
        let conn = match transport.recv(Duration::from_secs(5)).expect("event") {
            TransportEvent::Message(conn, _) => conn,
            other => panic!("unexpected {other:?}"),
        };
        transport.kill(conn);
        // The peer sees a clean close (no farewell frame), not an Ack.
        assert!(matches!(peer.recv(), Ok(None) | Err(_)));
        // The reader thread reports the loss.
        loop {
            match transport.recv(Duration::from_secs(5)).expect("event") {
                TransportEvent::Disconnected(id) if id == conn => break,
                _ => continue,
            }
        }
        // Sends to a killed connection fail cleanly.
        assert!(transport
            .send_all(&[conn], &Message::Ack { round: 0 })
            .is_err());
    }

    /// A peer that stops reading fills its socket's buffers, and a write
    /// to it blocks in the kernel. That write holds the connection's
    /// handle, not the writer map: a send to another peer and a kill of
    /// the stalled one go through, and the kill fails the blocked write.
    #[test]
    fn a_peer_that_stops_reading_blocks_neither_another_send_nor_a_kill() {
        let mut transport = capped(2);
        let mut peers = Vec::new();
        let mut conns = Vec::new();
        for id in ["stalled", "reading"] {
            let mut peer =
                MessageStream::connect(transport.local_addr(), MAX_FRAME_BYTES).expect("connect");
            peer.send(&Message::Hello {
                client_id: id.into(),
            })
            .expect("send");
            match transport.recv(Duration::from_secs(5)).expect("event") {
                TransportEvent::Message(conn, Message::Hello { .. }) => conns.push(conn),
                other => panic!("unexpected {other:?}"),
            }
            peers.push(peer);
        }
        let (stalled, reading) = (conns[0], conns[1]);
        // Frames of 1 MiB through the transport's write path until one has
        // not gone out for 200 ms: the stalled peer's buffers are full.
        let writers = Arc::clone(&transport.writers);
        let (wrote, frames) = mpsc::channel();
        let writer = std::thread::spawn(move || {
            let frame = vec![0u8; 1 << 20];
            while write_to(&writers, stalled, &frame).is_ok() {
                let _ = wrote.send(());
            }
        });
        let mut written = 0;
        while frames.recv_timeout(Duration::from_millis(200)).is_ok() {
            written += 1;
        }
        assert!(written >= 1, "not one frame went out before the stall");
        let (done, finished) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            transport
                .send_all(&[reading], &Message::Ack { round: 4 })
                .expect("a send to the reading peer");
            transport.kill(stalled);
            let _ = done.send(());
            transport
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the stalled peer held up a send to another peer or its own kill");
        assert!(matches!(
            peers[1].recv(),
            Ok(Some(Message::Ack { round: 4 }))
        ));
        writer.join().expect("the kill failed the blocked write");
        drop(worker.join().expect("worker"));
    }

    /// A round's broadcast is one envelope, and every control connection
    /// gets its bytes.
    #[test]
    fn a_broadcast_is_one_envelope_written_to_every_control_connection() {
        let mut transport = loopback();
        let ids: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        let mut peers = Vec::new();
        let mut controls = Vec::new();
        for id in &ids {
            let mut peer =
                MessageStream::connect(transport.local_addr(), MAX_FRAME_BYTES).expect("connect");
            peer.send(&Message::Hello {
                client_id: id.clone(),
            })
            .expect("send");
            match transport.recv(Duration::from_secs(5)).expect("event") {
                TransportEvent::Message(conn, Message::Hello { .. }) => controls.push(conn),
                other => panic!("unexpected {other:?}"),
            }
            peers.push(peer);
        }
        let global = evfad_nn::forecaster_model(4, 3).weights();
        let mut pool = SocketPool {
            transport: &mut transport,
            ids: &ids,
            controls,
            compression: CompressionMode::None,
            io_timeout: Duration::from_secs(5),
            current_round: 0,
        };
        let before = wire::ENVELOPES.with(|n| n.get());
        pool.broadcast(&global).expect("broadcast");
        assert_eq!(wire::ENVELOPES.with(|n| n.get()) - before, 1);
        for peer in &mut peers {
            match peer.recv() {
                Ok(Some(Message::Broadcast {
                    round: 1,
                    global: got,
                })) => {
                    assert_eq!(got, wire::encode_weights(&global));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn peer_hangup_surfaces_as_disconnect() {
        let transport = loopback();
        let peer =
            MessageStream::connect(transport.local_addr(), MAX_FRAME_BYTES).expect("connect");
        drop(peer);
        match transport.recv(Duration::from_secs(5)).expect("event") {
            TransportEvent::Disconnected(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn garbage_bytes_poison_only_the_offending_connection() {
        let transport = loopback();
        let mut bad = TcpStream::connect(transport.local_addr()).expect("connect");
        // A frame whose payload is not a valid EVMS envelope.
        let mut framed = Vec::new();
        write_frame(&mut framed, b"not a message").expect("write");
        bad.write_all(&framed).expect("write");
        match transport.recv(Duration::from_secs(5)).expect("event") {
            TransportEvent::Disconnected(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        // The transport still accepts and serves new connections.
        let mut good =
            MessageStream::connect(transport.local_addr(), MAX_FRAME_BYTES).expect("connect");
        good.send(&Message::Ack { round: 7 }).expect("send");
        match transport.recv(Duration::from_secs(5)).expect("event") {
            TransportEvent::Message(_, Message::Ack { round }) => assert_eq!(round, 7),
            other => panic!("unexpected {other:?}"),
        }
    }
}
