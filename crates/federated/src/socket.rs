//! TCP transport for the federated protocol: the federation over real
//! sockets.
//!
//! Three layers, bottom up:
//!
//! * `SocketTransport` — a listener with an accept thread and one
//!   reader thread per connection. Readers reassemble length-prefixed
//!   frames (see [`framing`](crate::framing)) from arbitrary read
//!   fragmentation, decode each into a [`Message`], and feed a single
//!   [`mpsc`] event queue the server drains. Writes go through a shared
//!   writer map so the server can send (and deliberately *kill*)
//!   connections from the round loop.
//! * [`SocketServer`] — binds, admits the expected clients
//!   (`Hello`/`Welcome` handshake), then drives the **same**
//!   `engine` round loop as the in-process simulation
//!   through a socket-backed pool. Every protocol decision — sampling,
//!   fault admission, disposition, metering, the `min_participants`
//!   floor, aggregation — executes in the shared engine, which is why
//!   the socket run's digest is byte-identical to
//!   [`FederatedSimulation`](crate::FederatedSimulation) for the same
//!   seed and config (the loopback suite pins it).
//! * [`SocketClient`] — connects, trains when asked, and uploads each
//!   update over a *fresh* connection per attempt with real
//!   exponential-backoff retries. Faults are acted out, not flagged:
//!   a straggler sleeps, a corrupt client corrupts its own payload
//!   before encoding, and a transient failure is a connection the
//!   server really closes mid-upload, which the client really retries.
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
//! scheduled from the same [`FaultPlan`](crate::faults::FaultPlan) on both paths: the server knows
//! a client's planned `Transient { failures }` and closes exactly that
//! many of its upload connections before acknowledging (or all of them,
//! when the plan exceeds the retry budget) — the client's honest retry
//! loop then reproduces the simulated attempt count on the wire.

use crate::client::{FedClient, LocalUpdate};
use crate::compression::{CodecScratch, CompressionMode, QuantizedUpdate};
use crate::engine::{self, Admitted, PoolUpdate, RoundPool};
use crate::error::FederatedError;
use crate::faults::FaultKind;
use crate::framing::{write_frame, FrameDecoder};
use crate::simulation::{FederatedConfig, FederatedOutcome};
use crate::transport::MeteredChannel;
use crate::wire::{self, Message};
use bytes::{Bytes, BytesMut};
use evfad_nn::{Sample, Sequential, TrainConfig};
use evfad_tensor::Matrix;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn transport_err(context: &str, detail: impl std::fmt::Display) -> FederatedError {
    FederatedError::Transport {
        message: format!("{context}: {detail}"),
    }
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

/// Listener + per-connection reader threads feeding one event queue.
///
/// Connections are identified by a monotonically increasing `u64`. The
/// transport does not know which connection belongs to which client —
/// the protocol layer learns that from `Hello` / `Update` messages.
#[derive(Debug)]
struct SocketTransport {
    local_addr: SocketAddr,
    events: Receiver<TransportEvent>,
    writers: Arc<Mutex<HashMap<u64, TcpStream>>>,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    scratch: BytesMut,
}

impl SocketTransport {
    /// Binds a listener and starts accepting connections immediately —
    /// clients may connect (and their `Hello`s queue) before the server
    /// starts draining events, so startup order cannot race.
    ///
    /// # Errors
    ///
    /// [`FederatedError::Transport`] if the bind fails.
    fn bind(addr: impl ToSocketAddrs) -> Result<Self, FederatedError> {
        let listener = TcpListener::bind(addr).map_err(|e| transport_err("bind", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| transport_err("local_addr", e))?;
        let (tx, events) = mpsc::channel();
        let writers: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
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
                    let id = next_id;
                    next_id += 1;
                    let Ok(write_half) = stream.try_clone() else {
                        continue;
                    };
                    writers.lock().insert(id, write_half);
                    let tx = tx.clone();
                    let writers = Arc::clone(&writers);
                    let handle = std::thread::spawn(move || run_reader(stream, id, &tx, &writers));
                    // Every upload attempt is a fresh connection: keep the
                    // handles of live readers only, or the list grows with
                    // rounds x clients x attempts for the server's lifetime.
                    let mut handles = reader_handles.lock();
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
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Sends one framed message on a connection.
    ///
    /// The envelope is encoded into the transport's pooled scratch buffer
    /// and shipped with a vectored header+payload write — no per-send
    /// framed buffer is ever assembled (warm sends allocate nothing).
    ///
    /// # Errors
    ///
    /// [`FederatedError::Transport`] when the connection is gone or the
    /// write fails.
    fn send(&mut self, conn: u64, msg: &Message) -> Result<(), FederatedError> {
        wire::encode_message(&mut self.scratch, msg);
        let mut writers = self.writers.lock();
        let stream = writers
            .get_mut(&conn)
            .ok_or_else(|| transport_err("send", format!("connection {conn} is gone")))?;
        write_frame(stream, &self.scratch).map_err(|e| transport_err("send", e))
    }

    /// Forcibly closes a connection **without** any farewell message —
    /// from the peer's side this is a connection lost mid-exchange. The
    /// reader thread observes the shutdown and emits
    /// [`TransportEvent::Disconnected`].
    fn kill(&self, conn: u64) {
        if let Some(stream) = self.writers.lock().remove(&conn) {
            let _ = stream.shutdown(Shutdown::Both);
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
        for (_, stream) in self.writers.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.reader_handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Per-connection reader: socket bytes → frames → messages → events.
/// Any framing or decode error poisons the stream (there is no
/// resynchronisation point in a length-prefixed protocol), so the
/// connection is dropped.
fn run_reader(
    mut stream: TcpStream,
    id: u64,
    tx: &Sender<TransportEvent>,
    writers: &Mutex<HashMap<u64, TcpStream>>,
) {
    let mut buf = [0u8; 4096];
    let mut decoder = FrameDecoder::new();
    'conn: loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => n,
        };
        decoder.feed(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => match wire::decode_message(&frame) {
                    Ok(msg) => {
                        if tx.send(TransportEvent::Message(id, msg)).is_err() {
                            break 'conn;
                        }
                    }
                    Err(_) => break 'conn,
                },
                Ok(None) => break,
                Err(_) => break 'conn,
            }
        }
    }
    if let Some(s) = writers.lock().remove(&id) {
        let _ = s.shutdown(Shutdown::Both);
    }
    let _ = tx.send(TransportEvent::Disconnected(id));
}

/// Framed, blocking message stream over one client-side connection.
struct MessageStream {
    stream: TcpStream,
    decoder: FrameDecoder,
    scratch: BytesMut,
}

impl MessageStream {
    fn connect(addr: SocketAddr) -> Result<Self, FederatedError> {
        let stream = TcpStream::connect(addr).map_err(|e| transport_err("connect", e))?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
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
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = self
                .decoder
                .next_frame()
                .map_err(|e| transport_err("recv", e))?
            {
                let msg = wire::decode_message(&frame).map_err(|e| transport_err("recv", e))?;
                return Ok(Some(msg));
            }
            let n = self
                .stream
                .read(&mut buf)
                .map_err(|e| transport_err("recv", e))?;
            if n == 0 {
                if self.decoder.buffered() > 0 {
                    return Err(transport_err("recv", "connection closed mid-frame"));
                }
                return Ok(None);
            }
            self.decoder.feed(&buf[..n]);
        }
    }
}

/// Encodes one uplink payload exactly as the in-process path meters it:
/// the same encoder over the same (post-fault) weights — so the byte
/// length on the wire equals the byte length the simulation's arithmetic
/// predicts. The compressed representation is built in the caller's
/// [`CodecScratch`], so a client that uploads every round re-fills the
/// same buffers instead of materializing a fresh `QuantizedUpdate` per
/// round.
fn encode_uplink_payload(
    mode: CompressionMode,
    weights: &[Matrix],
    scratch: &mut CodecScratch,
) -> Bytes {
    match mode {
        CompressionMode::None => wire::encode_weights(weights),
        CompressionMode::Quant8 => {
            QuantizedUpdate::quantize_into(weights, &mut scratch.quant);
            wire::encode_quantized(&scratch.quant)
        }
    }
}

/// Server-side decode of an uplink payload into weight matrices. The
/// payload's bytes depend on the update alone; `global` is here only so a
/// well-formed update of another architecture is refused like a malformed
/// one instead of reaching the aggregator.
fn decode_uplink_payload(
    mode: CompressionMode,
    payload: &[u8],
    global: &[Matrix],
) -> Result<Vec<Matrix>, FederatedError> {
    let weights = match mode {
        CompressionMode::None => wire::decode_weights(payload),
        CompressionMode::Quant8 => wire::decode_quantized(payload).map(|q| q.dequantize()),
    }
    .map_err(|e| transport_err("uplink payload", e))?;
    if !weights
        .iter()
        .map(Matrix::shape)
        .eq(global.iter().map(Matrix::shape))
    {
        let shapes = |w: &[Matrix]| w.iter().map(Matrix::shape).collect::<Vec<_>>();
        return Err(transport_err(
            "uplink payload",
            format!(
                "has tensor shapes {:?}, the model expects {:?}",
                shapes(&weights),
                shapes(global)
            ),
        ));
    }
    Ok(weights)
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
    channel: MeteredChannel,
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
        Ok(Self {
            transport: SocketTransport::bind(addr)?,
            template,
            cfg,
            channel: MeteredChannel::new(),
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
    /// can return, plus [`FederatedError::Transport`] for handshake
    /// timeouts, connection loss on a control channel, or protocol
    /// violations. On any error the server best-effort sends `Abort` to
    /// every admitted client before returning.
    pub fn run(&mut self) -> Result<FederatedOutcome, FederatedError> {
        let n = self.cfg.expected_clients.len();
        if n == 0 {
            return Err(FederatedError::NoClients);
        }
        self.cfg.config.validate(n)?;

        let controls = self.handshake()?;
        self.channel.reset();
        let global = self.template.weights();
        let mut pool = SocketPool {
            transport: &mut self.transport,
            ids: &self.cfg.expected_clients,
            controls: controls.clone(),
            compression: self.cfg.config.compression,
            io_timeout: self.cfg.io_timeout,
            current_round: 0,
        };
        let outcome = engine::run_rounds(&mut pool, &self.cfg.config, &self.channel, global);
        if let Err(err) = &outcome {
            let abort = Message::Abort {
                message: err.to_string(),
            };
            for &conn in &controls {
                let _ = self.transport.send(conn, &abort);
            }
        }
        outcome
    }

    /// Waits for a `Hello` from every expected client, then welcomes all
    /// of them at once with the config and the initial global weights.
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
        // The handshake speaks the same binary codec as the round loop
        // (`EVCF`), so not a single JSON byte crosses the socket.
        let welcome = Message::Welcome {
            config: wire::encode_config(&self.cfg.config),
            init_global: wire::encode_weights(&self.template.weights()),
        };
        for &conn in &controls {
            self.transport.send(conn, &welcome)?;
        }
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

    fn broadcast(&mut self, _global: &[Matrix], encoded: &[u8]) -> Result<(), FederatedError> {
        let msg = Message::Broadcast {
            round: (self.current_round + 1) as u32,
            global: Bytes::copy_from_slice(encoded),
        };
        for i in 0..self.controls.len() {
            self.transport.send(self.controls[i], &msg)?;
        }
        Ok(())
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
            self.transport.send(
                self.controls[a.index],
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
                    // Final arrival: decode and keep (the fold decides
                    // Keep vs Waste; either way the payload is metered).
                    let weights = decode_uplink_payload(self.compression, &payload, global)?;
                    entry.result = Some(PoolUpdate {
                        update: LocalUpdate {
                            client_id,
                            weights,
                            sample_count: sample_count as usize,
                            train_loss,
                            duration: Duration::ZERO,
                            simulated_extra_seconds: 0.0,
                        },
                        wire_len: Some(payload.len()),
                    });
                    if entry.ack_last {
                        self.transport.send(conn, &Message::Ack { round: r })?;
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
        let done = Message::Done {
            global: wire::encode_weights(global),
        };
        for i in 0..self.controls.len() {
            self.transport.send(self.controls[i], &done)?;
        }
        Ok(())
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
    /// [`FederatedError::Transport`] on connection loss, protocol
    /// violations, or a server `Abort`; training errors are propagated.
    pub fn run(
        &self,
        addr: SocketAddr,
        client_id: impl Into<String>,
        template: Sequential,
        samples: Vec<Sample>,
    ) -> Result<Vec<Matrix>, FederatedError> {
        let client_id = client_id.into();
        let mut control = MessageStream::connect(addr)?;
        control.send(&Message::Hello {
            client_id: client_id.clone(),
        })?;
        let (config, init_global) = match control.recv()? {
            Some(Message::Welcome {
                config,
                init_global,
            }) => {
                let config =
                    wire::decode_config(&config).map_err(|e| transport_err("welcome", e))?;
                let init =
                    wire::decode_weights(&init_global).map_err(|e| transport_err("welcome", e))?;
                (config, init)
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
        let train_cfg = TrainConfig {
            epochs: config.epochs_per_round,
            batch_size: config.batch_size,
            ..TrainConfig::default()
        };
        let retry_budget = config.faults.as_ref().map_or(0, |p| p.retry_budget);
        // Reused across rounds: warm uploads re-fill these codec buffers
        // instead of allocating a fresh compressed representation.
        let mut codec_scratch = CodecScratch::default();

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
                            self.sleep(delay_seconds);
                        }
                        Some(FaultKind::Corrupt { corruption }) => {
                            corruption.apply(&mut weights);
                        }
                        _ => {}
                    }
                    let payload =
                        encode_uplink_payload(config.compression, &weights, &mut codec_scratch);
                    let msg = Message::Update {
                        round,
                        client_id: client_id.clone(),
                        sample_count: update.sample_count as u64,
                        train_loss: update.train_loss,
                        payload,
                    };
                    self.upload_with_retries(addr, &msg, retry_budget, config.faults.as_ref())?;
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

    /// Uploads over a fresh connection per attempt, retrying with
    /// exponential backoff when the connection dies before the `Ack` —
    /// up to `retry_budget` retries, after which the client gives up
    /// (the fault plan's retries-exhausted outcome; not a client error).
    fn upload_with_retries(
        &self,
        addr: SocketAddr,
        msg: &Message,
        retry_budget: usize,
        plan: Option<&crate::faults::FaultPlan>,
    ) -> Result<(), FederatedError> {
        let max_attempts = retry_budget + 1;
        for attempt in 0..max_attempts {
            if self.upload_once(addr, msg).is_ok() {
                return Ok(());
            }
            if attempt + 1 < max_attempts {
                if let Some(plan) = plan {
                    self.sleep(plan.backoff_step_seconds(attempt));
                }
            }
        }
        Ok(())
    }

    /// One upload attempt: connect, send, block for the `Ack`. Any
    /// connection loss before the ack is a failed attempt.
    fn upload_once(&self, addr: SocketAddr, msg: &Message) -> Result<(), FederatedError> {
        let mut conn = MessageStream::connect(addr)?;
        conn.send(msg)?;
        match conn.recv()? {
            Some(Message::Ack { .. }) => Ok(()),
            other => Err(transport_err("upload", format!("no ack, got {other:?}"))),
        }
    }

    fn sleep(&self, seconds: f64) {
        let scaled = seconds * self.time_dilation;
        if scaled > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(scaled));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn loopback() -> SocketTransport {
        SocketTransport::bind("127.0.0.1:0").expect("bind")
    }

    #[test]
    fn hello_crosses_the_transport() {
        let transport = loopback();
        let mut peer = MessageStream::connect(transport.local_addr()).expect("connect");
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
        let live = transport.reader_handles.lock().len();
        assert!(live < 16, "{live} reader handles after 64 hang-ups");
    }

    #[test]
    fn kill_looks_like_connection_loss_to_the_peer() {
        let mut transport = loopback();
        let mut peer = MessageStream::connect(transport.local_addr()).expect("connect");
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
        assert!(transport.send(conn, &Message::Ack { round: 0 }).is_err());
    }

    #[test]
    fn peer_hangup_surfaces_as_disconnect() {
        let transport = loopback();
        let peer = MessageStream::connect(transport.local_addr()).expect("connect");
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
        let mut framed = BytesMut::new();
        crate::framing::encode_frame(&mut framed, b"not a message");
        bad.write_all(&framed).expect("write");
        match transport.recv(Duration::from_secs(5)).expect("event") {
            TransportEvent::Disconnected(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        // The transport still accepts and serves new connections.
        let mut good = MessageStream::connect(transport.local_addr()).expect("connect");
        good.send(&Message::Ack { round: 7 }).expect("send");
        match transport.recv(Duration::from_secs(5)).expect("event") {
            TransportEvent::Message(_, Message::Ack { round }) => assert_eq!(round, 7),
            other => panic!("unexpected {other:?}"),
        }
    }
}
