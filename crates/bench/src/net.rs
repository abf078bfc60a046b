//! Concurrent multi-tenant serving: the calling thread as single writer
//! owning the [`HostSession`], N reader threads answering lookups from
//! per-tenant epoch snapshots, and a line-protocol TCP front-end over
//! `std::net`.
//!
//! ## Architecture
//!
//! ```text
//!   per-tenant write queues (mpsc)  ┌────────────────────────────────┐
//!  ───────────────────────────────▶│ writer (caller thread):        │
//!  ───────────────────────────────▶│  round-robin drain →           ├──▶ one Published<GroupSnapshot>
//!  ───────────────────────────────▶│  HostSession::execute(tenant)  │    per tenant (Arc swap)
//!                                  └────────────────────────────────┘        │
//!   TCP clients ──▶ acceptor ──▶ connection queue ──▶ N readers on a         ▼
//!                     WorkerPool, each holding a HostHandle: one PublishedReader
//!                     per tenant — lookups never wait on the writer or each other
//! ```
//!
//! The split is strict: only the writer thread touches the engines (the
//! scorer providers and blockers are not `Send`, so the session never
//! migrates — the *readers* are the spawned threads). Each reader holds
//! a [`HostHandle`] — one [`PublishedReader`] per tenant — and serves
//! `group_of`/`members`/`stats` from whichever epoch is current for the
//! addressed tenant; a batch mid-apply is invisible until its snapshot is
//! published, and tenants' epochs move independently. Write requests
//! arriving on a reader's connection are forwarded to the writer on the
//! addressed tenant's queue; the single drain sweeps the queues
//! round-robin (one request per tenant per sweep) so a churn-heavy
//! tenant cannot starve another tenant's writes.
//!
//! Every connection carries its own current-tenant cursor (`use <t>`),
//! starting at the host's default tenant; `<tenant>.cmd` addressing
//! works independently of the cursor.

use crate::serve::{
    coded, hello_line, lookup_response, parse_request, tenants_line, ErrorCode, HostSession,
    ServeCommand, HELP_LINE,
};
use gralmatch_core::GroupSnapshot;
use gralmatch_util::{PublishedReader, WorkerPool};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One unit of work for the writer: the tenant is implied by the queue
/// it arrives on; the reply channel carries the protocol response line.
struct WriteRequest {
    command: ServeCommand,
    reply: Sender<Result<String, String>>,
}

/// Wakes the drain when any tenant queue gains a request — `mpsc`
/// receivers cannot be waited on as a set, so senders raise this shared
/// signal after enqueueing.
struct QueueSignal {
    pending: Mutex<u64>,
    available: Condvar,
}

impl QueueSignal {
    fn new() -> Self {
        QueueSignal {
            pending: Mutex::new(0),
            available: Condvar::new(),
        }
    }

    /// Announce one enqueued request.
    fn raise(&self) {
        *self.pending.lock().expect("queue signal poisoned") += 1;
        self.available.notify_one();
    }

    /// Block until a request was announced since the last `wait` (or the
    /// timeout backstop elapses — handle drops don't raise the signal).
    fn wait(&self, timeout: Duration) {
        let mut pending = self.pending.lock().expect("queue signal poisoned");
        if *pending == 0 {
            let (next, _) = self
                .available
                .wait_timeout(pending, timeout)
                .expect("queue signal poisoned");
            pending = next;
        }
        *pending = 0;
    }
}

/// Split a session into its per-tenant write queues (drained by the
/// calling thread) and a cloneable per-reader [`HostHandle`].
/// [`WriteQueues::drain`] returns once every handle clone is dropped.
pub fn host_channel(session: &HostSession) -> (WriteQueues, HostHandle) {
    let signal = Arc::new(QueueSignal::new());
    let mut queues = Vec::new();
    let mut handles = Vec::new();
    for (name, tenant) in session.host().iter() {
        let (sender, receiver) = channel();
        queues.push((name.to_string(), receiver));
        handles.push((
            name.to_string(),
            TenantHandle {
                domain: tenant.domain(),
                reader: PublishedReader::new(tenant.snapshot_source()),
                sender,
                signal: signal.clone(),
            },
        ));
    }
    (
        WriteQueues { queues, signal },
        HostHandle {
            default_tenant: session.default_tenant().to_string(),
            tenants: handles,
        },
    )
}

/// The writer side of [`host_channel`]: the single consumer of every
/// tenant's enqueued writes.
pub struct WriteQueues {
    queues: Vec<(String, Receiver<WriteRequest>)>,
    signal: Arc<QueueSignal>,
}

impl WriteQueues {
    /// Serve writes on the current thread until every [`HostHandle`] is
    /// dropped, sweeping the tenant queues round-robin — at most one
    /// request per tenant per sweep, so no tenant's churn can starve
    /// another's writes. Returns the number of requests served; failed
    /// requests answer their sender and keep the drain running.
    pub fn drain(self, session: &mut HostSession) -> u64 {
        let mut served = 0;
        let mut open = vec![true; self.queues.len()];
        let mut remaining = self.queues.len();
        loop {
            let mut progressed = false;
            for (index, (tenant, queue)) in self.queues.iter().enumerate() {
                if !open[index] {
                    continue;
                }
                match queue.try_recv() {
                    Ok(request) => {
                        progressed = true;
                        served += 1;
                        let _ = request
                            .reply
                            .send(session.execute(tenant, &request.command));
                    }
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => {
                        open[index] = false;
                        remaining -= 1;
                    }
                }
            }
            if remaining == 0 {
                return served;
            }
            if !progressed {
                self.signal.wait(POLL_INTERVAL);
            }
        }
    }
}

/// One tenant's reader-side view: lock-free snapshot lookups plus the
/// tenant's write queue. `Send`, cheap to clone.
pub struct TenantHandle {
    domain: &'static str,
    reader: PublishedReader<GroupSnapshot>,
    sender: Sender<WriteRequest>,
    signal: Arc<QueueSignal>,
}

impl Clone for TenantHandle {
    fn clone(&self) -> Self {
        TenantHandle {
            domain: self.domain,
            reader: self.reader.clone(),
            sender: self.sender.clone(),
            signal: self.signal.clone(),
        }
    }
}

impl TenantHandle {
    /// The tenant's domain name.
    pub fn domain(&self) -> &'static str {
        self.domain
    }

    /// The tenant's current epoch snapshot (refreshes the cached `Arc`
    /// only when the writer published a new epoch).
    pub fn snapshot(&mut self) -> &Arc<GroupSnapshot> {
        self.reader.current()
    }

    /// Round-trip one writer-side command through the write queue.
    pub fn send(&self, command: ServeCommand) -> Result<String, String> {
        let (reply, responses) = channel();
        self.sender
            .send(WriteRequest { command, reply })
            .map_err(|_| coded(ErrorCode::WriterGone, "writer is gone"))?;
        self.signal.raise();
        responses
            .recv()
            .map_err(|_| coded(ErrorCode::WriterGone, "writer dropped the request"))?
    }
}

/// A per-reader-thread view of the whole host: one [`TenantHandle`] per
/// tenant, addressed by name. `Send`, cheap to clone — one per thread,
/// with a per-connection tenant cursor passed into [`command`](Self::command).
#[derive(Clone)]
pub struct HostHandle {
    tenants: Vec<(String, TenantHandle)>,
    default_tenant: String,
}

impl HostHandle {
    /// The default tenant's name (a fresh connection's cursor).
    pub fn default_tenant(&self) -> &str {
        &self.default_tenant
    }

    /// Registered tenant names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.tenants.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// One tenant's handle.
    pub fn tenant(&mut self, name: &str) -> Option<&mut TenantHandle> {
        self.tenants
            .iter_mut()
            .find(|(tenant, _)| tenant == name)
            .map(|(_, handle)| handle)
    }

    fn unknown(name: &str) -> String {
        coded(
            ErrorCode::UnknownTenant,
            format!("no tenant named {name:?} (try `tenants`)"),
        )
    }

    /// Execute one protocol line with `cursor` as the connection's
    /// current tenant: session commands and lookups answer on this
    /// thread from the addressed tenant's current snapshot; writes
    /// round-trip through the writer on that tenant's queue.
    pub fn command(&mut self, cursor: &mut String, line: &str) -> Result<String, String> {
        let Some(request) = parse_request(line)? else {
            return Ok(String::new());
        };
        match &request.command {
            ServeCommand::Hello => return Ok(hello_line(self.tenants.len(), &self.default_tenant)),
            ServeCommand::Ping => return Ok("pong".to_string()),
            ServeCommand::Help => return Ok(HELP_LINE.to_string()),
            ServeCommand::Tenants => {
                let rows: Vec<(String, &'static str, u64)> = self
                    .tenants
                    .iter_mut()
                    .map(|(name, handle)| {
                        (name.clone(), handle.domain, handle.reader.current().epoch())
                    })
                    .collect();
                return Ok(tenants_line(
                    rows.iter()
                        .map(|(name, domain, epoch)| (name.as_str(), *domain, *epoch)),
                ));
            }
            ServeCommand::Use(name) => {
                return if self.tenants.iter().any(|(tenant, _)| tenant == name) {
                    cursor.clone_from(name);
                    Ok(format!("using {name}"))
                } else {
                    Err(Self::unknown(name))
                };
            }
            _ => {}
        }
        // `model <tenant> <path>` routes on its own tenant argument; all
        // other tenant-scoped commands on the prefix or the cursor.
        let route = match &request.command {
            ServeCommand::Model { tenant, .. } => tenant.clone(),
            _ => request.tenant.clone().unwrap_or_else(|| cursor.clone()),
        };
        let Some(handle) = self.tenant(&route) else {
            return Err(Self::unknown(&route));
        };
        if request.command.is_lookup() {
            return lookup_response(&route, handle.reader.current(), &request.command)
                .expect("is_lookup commands are snapshot-answerable");
        }
        handle.send(request.command)
    }
}

/// How the TCP front-end ran: connections served and requests answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines answered (errors included).
    pub requests: u64,
}

/// Longest request line a connection may send, newline excluded. A
/// client that streams more without a newline gets a `line-too-long`
/// error and is disconnected, so one connection's buffer cannot grow
/// without bound. Sized well above the largest inline batch the repo's
/// tools produce: a `serve bootstrap` delta file at the default scale is
/// ~1.3 MB of compact JSON.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Poll interval of the accept loop, the per-connection read timeout, and
/// the drain's wakeup backstop — the latency bound on noticing a
/// `shutdown`.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Serve the line protocol on `listener` until a client sends
/// `shutdown`: the calling thread is the single writer draining the
/// per-tenant write queues; an acceptor plus `readers` reader threads
/// run on a [`WorkerPool`], each reader pulling accepted connections
/// from a shared queue and answering request lines from its own
/// per-tenant epoch-snapshot views. Responses are one line per request
/// line; protocol failures answer `error: <code>: <message>` and keep
/// the connection open.
///
/// Returns the session (persist tenant states with
/// [`HostSession::save_state`]) and a run report.
pub fn serve_tcp(
    listener: TcpListener,
    mut session: HostSession,
    readers: usize,
) -> std::io::Result<(HostSession, ServeReport)> {
    listener.set_nonblocking(true)?;
    let (queues, handle) = host_channel(&session);
    let stop = AtomicBool::new(false);
    let connections: Mutex<Vec<TcpStream>> = Mutex::new(Vec::new());
    let available = Condvar::new();
    let accepted = AtomicU64::new(0);
    let answered = AtomicU64::new(0);

    std::thread::scope(|scope| {
        {
            // Worker 0 accepts; workers 1..=readers serve connections.
            // When broadcast returns every handle clone is dropped, which
            // ends the writer's drain below.
            let (stop, connections, available) = (&stop, &connections, &available);
            let (accepted, answered, listener) = (&accepted, &answered, &listener);
            let base = handle;
            scope.spawn(move || {
                WorkerPool::new(readers.max(1) + 1).broadcast(|worker| {
                    if worker == 0 {
                        accept_loop(listener, stop, connections, available, accepted);
                        return;
                    }
                    let mut handle = base.clone();
                    while let Some(stream) = next_connection(stop, connections, available) {
                        // A dropped connection only ends that client.
                        let _ = serve_connection(stream, &mut handle, stop, answered);
                    }
                });
            });
        }
        queues.drain(&mut session);
    });

    Ok((
        session,
        ServeReport {
            connections: accepted.load(Ordering::Relaxed),
            requests: answered.load(Ordering::Relaxed),
        },
    ))
}

/// Feed the connection queue until the stop flag rises.
fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    connections: &Mutex<Vec<TcpStream>>,
    available: &Condvar,
    accepted: &AtomicU64,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                accepted.fetch_add(1, Ordering::Relaxed);
                connections
                    .lock()
                    .expect("connection queue poisoned")
                    .push(stream);
                available.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
    available.notify_all();
}

/// Pop the next accepted connection, or `None` once the stop flag rises.
fn next_connection(
    stop: &AtomicBool,
    connections: &Mutex<Vec<TcpStream>>,
    available: &Condvar,
) -> Option<TcpStream> {
    let mut queue = connections.lock().expect("connection queue poisoned");
    loop {
        if let Some(stream) = queue.pop() {
            return Some(stream);
        }
        if stop.load(Ordering::Acquire) {
            return None;
        }
        let (next, _) = available
            .wait_timeout(queue, POLL_INTERVAL)
            .expect("connection queue poisoned");
        queue = next;
    }
}

/// Serve one connection until EOF, error, or `shutdown`. Each connection
/// gets its own tenant cursor, starting at the host's default tenant.
fn serve_connection(
    stream: TcpStream,
    handle: &mut HostHandle,
    stop: &AtomicBool,
    answered: &AtomicU64,
) -> std::io::Result<()> {
    // Readers must notice a shutdown triggered on another connection, so
    // reads time out and re-check the stop flag instead of blocking
    // indefinitely on an idle client. Partial lines survive timeouts in
    // `pending` (`read_until` keeps bytes read before an error); each
    // read may fill it to one byte past `MAX_LINE_BYTES`, no further.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut pending: Vec<u8> = Vec::new();
    let mut cursor = handle.default_tenant().to_string();
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let budget = (MAX_LINE_BYTES + 1 - pending.len()) as u64;
        let at_eof = match reader.by_ref().take(budget).read_until(b'\n', &mut pending) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        if !at_eof && pending.last() != Some(&b'\n') {
            if pending.len() > MAX_LINE_BYTES {
                answered.fetch_add(1, Ordering::Relaxed);
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                writeln!(writer, "error: {}", coded(ErrorCode::LineTooLong, message))?;
                return Ok(());
            }
            // Mid-line (the delimiter hasn't arrived yet): keep reading.
            continue;
        }
        if pending.is_empty() {
            return Ok(()); // clean EOF
        }
        // Invalid UTF-8 becomes replacement characters: a garbage line
        // must produce a protocol error response, not kill the reader.
        let line = String::from_utf8_lossy(&pending).trim().to_string();
        pending.clear();
        if line == "shutdown" {
            stop.store(true, Ordering::Release);
            writeln!(writer, "shutting down")?;
            return Ok(());
        }
        answered.fetch_add(1, Ordering::Relaxed);
        match handle.command(&mut cursor, &line) {
            Ok(response) if response.is_empty() => {}
            Ok(response) => writeln!(writer, "{response}")?,
            Err(message) => writeln!(writer, "error: {message}")?,
        }
        if at_eof {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::bootstrap_tenant;
    use gralmatch_core::{EngineHost, ShardPlan, UpsertBatch};
    use gralmatch_datagen::{generate, FinancialDataset, GenerationConfig};
    use gralmatch_records::{RecordId, SecurityRecord};
    use gralmatch_util::ToJson;

    fn financial() -> FinancialDataset {
        let mut config = GenerationConfig::synthetic_full();
        config.num_entities = 40;
        generate(&config).unwrap()
    }

    fn single_session(records: Vec<SecurityRecord>) -> HostSession {
        let (tenant, _) = bootstrap_tenant(records, ShardPlan::new(2), None).unwrap();
        HostSession::single("sec", Box::new(tenant)).unwrap()
    }

    /// Securities + companies from the same synthetic universe, as two
    /// tenants.
    fn dual_session(data: &FinancialDataset) -> HostSession {
        let mut host = EngineHost::new();
        let (sec, _) =
            bootstrap_tenant(data.securities.records().to_vec(), ShardPlan::new(2), None).unwrap();
        host.add_tenant("sec", Box::new(sec)).unwrap();
        let (comp, _) =
            bootstrap_tenant(data.companies.records().to_vec(), ShardPlan::new(2), None).unwrap();
        host.add_tenant("comp", Box::new(comp)).unwrap();
        HostSession::new(host).unwrap()
    }

    #[test]
    fn handles_serve_reads_and_route_writes_to_the_drain() {
        let records = financial().securities.records().to_vec();
        let held_out = records.last().unwrap().clone();
        let held_id = held_out.id;
        let mut session = single_session(records[..records.len() - 1].to_vec());
        let (queues, handle) = host_channel(&session);

        std::thread::scope(|scope| {
            let reader = scope.spawn(move || {
                let mut handle = handle;
                let mut cursor = handle.default_tenant().to_string();
                assert_eq!(handle.tenant("sec").unwrap().snapshot().epoch(), 1);
                let response = handle.command(&mut cursor, "group_of 0").unwrap();
                assert!(response.contains("record 0"), "{response}");
                assert!(handle.command(&mut cursor, "nonsense").is_err());

                // A write through the queue becomes visible to another
                // handle's next snapshot load.
                let mut other = handle.clone();
                let insert = UpsertBatch::inserting(vec![held_out]);
                let response = handle
                    .command(&mut cursor, &insert.to_json().to_compact_string())
                    .unwrap();
                assert!(response.contains("applied +1~0-0"), "{response}");
                assert_eq!(other.tenant("sec").unwrap().snapshot().epoch(), 2);
                assert!(other
                    .tenant("sec")
                    .unwrap()
                    .snapshot()
                    .group_of(held_id)
                    .is_some());
            });
            // This thread is the writer.
            assert_eq!(queues.drain(&mut session), 1);
            reader.join().expect("reader panicked")
        });
        let tenant = session.host().tenant("sec").unwrap();
        assert!(tenant.group_of(held_id).is_some());
        assert_eq!(tenant.stats().batches_applied, 2);
        assert_eq!(session.latency("sec").unwrap().count(), 1);
    }

    #[test]
    fn rejected_writes_report_coded_errors_without_killing_the_drain() {
        let records = financial().securities.records().to_vec();
        let live = records[0].clone();
        let mut session = single_session(records);
        let (queues, handle) = host_channel(&session);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut handle = handle;
                let mut cursor = handle.default_tenant().to_string();
                // Insert of a live id: rejected with a stable code, the
                // writer stays up for the next request.
                let insert = UpsertBatch::inserting(vec![live])
                    .to_json()
                    .to_compact_string();
                let err = handle.command(&mut cursor, &insert).unwrap_err();
                assert!(err.starts_with("apply-rejected: "), "{err}");
                let err = handle.command(&mut cursor, &insert).unwrap_err();
                assert!(err.starts_with("apply-rejected: "), "{err}");
            });
            assert_eq!(queues.drain(&mut session), 2);
        });
        assert_eq!(
            session
                .host()
                .tenant("sec")
                .unwrap()
                .stats()
                .batches_applied,
            1
        );
    }

    #[test]
    fn tcp_round_trip_with_concurrent_multi_tenant_clients() {
        let data = financial();
        let expected_sec_live = data.securities.records().len();
        let expected_comp_live = data.companies.records().len();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let session = dual_session(&data);

        fn client(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<String> {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            lines
                .iter()
                .map(|line| {
                    writeln!(writer, "{line}").unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    response.trim_end().to_string()
                })
                .collect()
        }

        // The session is not `Send` (the writer stays on this thread), so
        // the *clients* run on spawned threads while serve_tcp blocks here.
        let clients = std::thread::spawn(move || {
            let lookups: Vec<_> = (0..2)
                .map(|_| {
                    std::thread::spawn(move || {
                        client(
                            addr,
                            &[
                                "hello",
                                "ping",
                                "group_of 0",
                                "comp.stats",
                                "use comp",
                                "stats",
                                "bogus",
                                "{broken json",
                                "group_of 999999",
                                "nope.stats",
                            ],
                        )
                    })
                })
                .collect();
            let concurrent: Vec<Vec<String>> =
                lookups.into_iter().map(|c| c.join().unwrap()).collect();
            // A delete on the default (securities) tenant, then shutdown.
            let last = client(addr, &["{\"deletes\":[0]}", "tenants", "shutdown"]);
            (concurrent, last)
        });
        let (session, report) = serve_tcp(listener, session, 3).unwrap();
        let (concurrent, last) = clients.join().unwrap();

        for responses in concurrent {
            assert!(responses[0].contains("protocol-version=2"), "{responses:?}");
            assert!(responses[0].contains("tenants=2"), "{responses:?}");
            assert_eq!(responses[1], "pong", "{responses:?}");
            assert!(responses[2].contains("record 0"), "{responses:?}");
            assert!(
                responses[3].contains(&format!("tenant comp: {expected_comp_live} live records")),
                "{responses:?}"
            );
            assert_eq!(responses[4], "using comp", "{responses:?}");
            assert!(
                responses[5].contains(&format!("tenant comp: {expected_comp_live} live records")),
                "{responses:?}"
            );
            assert!(
                responses[6].starts_with("error: bad-command: "),
                "{responses:?}"
            );
            assert!(
                responses[7].starts_with("error: bad-batch: "),
                "{responses:?}"
            );
            // The cursor moved to `comp`, so the miss names that tenant.
            assert!(
                responses[8].starts_with("error: unknown-record: "),
                "{responses:?}"
            );
            assert!(responses[8].contains("tenant comp"), "{responses:?}");
            assert!(
                responses[9].starts_with("error: unknown-tenant: "),
                "{responses:?}"
            );
        }
        assert!(last[0].contains("applied +0~0-1"), "{last:?}");
        // The delete bumped only the securities tenant's epoch.
        assert!(last[1].contains("sec=securities@epoch=2"), "{last:?}");
        assert!(last[1].contains("comp=companies@epoch=1"), "{last:?}");
        assert_eq!(last[2], "shutting down");
        let sec = session.host().tenant("sec").unwrap();
        assert_eq!(sec.group_of(RecordId(0)), None);
        assert_eq!(sec.stats().num_live, expected_sec_live - 1);
        assert_eq!(report.connections, 3);
        assert!(report.requests >= 22, "{report:?}");
    }

    #[test]
    fn overlong_line_is_refused_and_the_connection_closed() {
        let data = financial();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let session = single_session(data.securities.records().to_vec());

        let clients = std::thread::spawn(move || {
            // One byte past the cap, never a newline. The read timeout
            // and the scoped stream turn a server that never answers into
            // a failure, not a hang.
            let (refused, closed) = {
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let chunk = vec![b'x'; 1 << 16];
                let mut left = MAX_LINE_BYTES + 1;
                while left > 0 {
                    let n = left.min(chunk.len());
                    writer.write_all(&chunk[..n]).unwrap();
                    left -= n;
                }
                let mut reader = BufReader::new(stream);
                let mut refused = String::new();
                let _ = reader.read_line(&mut refused);
                let closed = matches!(reader.read_line(&mut String::new()), Ok(0));
                (refused, closed)
            };

            // The server keeps serving other connections.
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut pong = String::new();
            writeln!(writer, "ping").unwrap();
            reader.read_line(&mut pong).unwrap();
            writeln!(writer, "shutdown").unwrap();
            (refused, closed, pong)
        });
        let (_, report) = serve_tcp(listener, session, 1).unwrap();
        let (refused, closed, pong) = clients.join().unwrap();
        assert!(refused.starts_with("error: line-too-long: "), "{refused:?}");
        assert!(closed, "the connection must close after line-too-long");
        assert_eq!(pong.trim_end(), "pong");
        assert_eq!(report.connections, 2);
    }
}
