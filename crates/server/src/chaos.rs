//! Deterministic in-process TCP fault proxy for chaos testing.
//!
//! [`ChaosProxy`] sits between a client and the real server, forwarding
//! bytes through two pump threads per connection and injecting network
//! faults at precise, reproducible points. Faults come from two sources,
//! both seeded:
//!
//! * a **per-connection plan** — either derived from `mix(seed ^ index)`
//!   (soak mode: mostly healthy, occasionally severed or delayed) or
//!   scripted explicitly ([`ChaosProxy::spawn_scripted`]) for
//!   surgically-timed scenarios like "sever the server→client leg after
//!   9 bytes", which is exactly an INSERT whose execution succeeded but
//!   whose ack was lost;
//! * the shared [`FaultInjector`] vocabulary from `lidardb_core::fault`
//!   ([`FaultStage::NetRead`] / [`FaultStage::NetWrite`], target
//!   `"conn:<index>"`), so the same rule engine that drives WAL torture
//!   drives network torture.
//!
//! The proxy is a test instrument: panics are confined to its own
//! threads, every socket read is timeout-bounded, and `retarget` lets a
//! soak point the same client-facing address at a restarted server.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use lidardb_core::fault::{mix, FaultInjector, FaultKind, FaultStage};

/// What one proxied connection does to its traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScript {
    /// Forward faithfully in both directions.
    Healthy,
    /// Delay every forwarded chunk (both directions) by this many
    /// milliseconds — a slow link, not a broken one.
    DelayMs(u64),
    /// Sever both directions after this many **server→client** bytes have
    /// been forwarded. The server keeps executing whatever it already
    /// received — with the hello's 8 bytes counted, a limit of 9 loses a
    /// statement's ack *after* the statement ran.
    DropServerToClientAfter(u64),
    /// Sever both directions after this many **client→server** bytes —
    /// the request itself is lost (possibly mid-frame).
    DropClientToServerAfter(u64),
    /// Accept, then forward nothing in either direction. Only a client
    /// I/O timeout rescues the caller — which is the point.
    Blackhole,
}

enum Plan {
    /// Conn `i` runs `scripts[i]` (`Healthy` once the script runs out).
    Scripted(Vec<ChaosScript>),
    /// Conn `i` runs a plan derived from `mix(seed ^ i)`.
    Seeded(u64),
}

impl Plan {
    fn for_conn(&self, index: u64) -> ChaosScript {
        match self {
            Plan::Scripted(scripts) => scripts
                .get(index as usize)
                .copied()
                .unwrap_or(ChaosScript::Healthy),
            Plan::Seeded(seed) => {
                let r = mix(seed ^ index.wrapping_mul(0x9E37));
                // Healthy-dominated: the soak must make progress. The
                // unhealthy tail exercises severed acks (both directions)
                // and slow links; blackholes are the rarest because each
                // one costs a full client I/O timeout.
                match r % 10 {
                    0..=5 => ChaosScript::Healthy,
                    6 => ChaosScript::DelayMs(1 + (r >> 8) % 20),
                    7 => ChaosScript::DropServerToClientAfter(9 + (r >> 8) % 256),
                    8 => ChaosScript::DropClientToServerAfter(9 + (r >> 8) % 256),
                    _ => ChaosScript::Blackhole,
                }
            }
        }
    }
}

/// The proxy: one accept loop, two pump threads per connection.
pub struct ChaosProxy {
    addr: SocketAddr,
    upstream: Arc<Mutex<SocketAddr>>,
    stop: Arc<AtomicBool>,
    join: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Soak mode: per-connection fault plans derived from `seed`.
    pub fn spawn(upstream: SocketAddr, seed: u64) -> std::io::Result<ChaosProxy> {
        ChaosProxy::spawn_with(upstream, Plan::Seeded(seed), None)
    }

    /// Script mode: connection `i` gets `scripts[i]`, later connections
    /// are healthy. For deterministic single-scenario tests.
    pub fn spawn_scripted(
        upstream: SocketAddr,
        scripts: Vec<ChaosScript>,
    ) -> std::io::Result<ChaosProxy> {
        ChaosProxy::spawn_with(upstream, Plan::Scripted(scripts), None)
    }

    /// Script mode with a shared [`FaultInjector`]: `NetRead`/`NetWrite`
    /// rules (target `"conn:<index>"`) fire on top of the per-connection
    /// scripts.
    pub fn spawn_scripted_with_fault(
        upstream: SocketAddr,
        scripts: Vec<ChaosScript>,
        fault: Arc<FaultInjector>,
    ) -> std::io::Result<ChaosProxy> {
        ChaosProxy::spawn_with(upstream, Plan::Scripted(scripts), Some(fault))
    }

    fn spawn_with(
        upstream: SocketAddr,
        plan: Plan,
        fault: Option<Arc<FaultInjector>>,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let upstream = Arc::new(Mutex::new(upstream));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_upstream = Arc::clone(&upstream);
        let accept_stop = Arc::clone(&stop);
        let join = thread::spawn(move || {
            accept_loop(
                &listener,
                &accept_upstream,
                &accept_stop,
                &plan,
                fault.as_ref(),
            );
        });
        Ok(ChaosProxy {
            addr,
            upstream,
            stop,
            join: Some(join),
        })
    }

    /// The client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point future connections at a new upstream — the lever a soak pulls
    /// after restarting the server on a fresh port. In-flight connections
    /// keep their old upstream (and die with it, which is the test).
    pub fn retarget(&self, upstream: SocketAddr) {
        *self
            .upstream
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = upstream;
    }

    /// Stop accepting and join the accept loop. Live pumps die with their
    /// sockets' timeouts.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: &Arc<Mutex<SocketAddr>>,
    stop: &Arc<AtomicBool>,
    plan: &Plan,
    fault: Option<&Arc<FaultInjector>>,
) {
    let mut index: u64 = 0;
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(client) = conn else { continue };
        let target = *upstream
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Upstream down (mid-restart): drop the client connection — it
        // sees a reset, classifies it transient, and backs off.
        let Ok(server) = TcpStream::connect_timeout(&target, Duration::from_millis(500)) else {
            let _ = client.shutdown(Shutdown::Both);
            index += 1;
            continue;
        };
        let script = plan.for_conn(index);
        spawn_pumps(client, server, index, script, stop, fault);
        index += 1;
    }
}

/// The budget one direction of a connection has left before its script
/// severs the link (`None` = unlimited).
fn byte_budget(script: ChaosScript, server_to_client: bool) -> Option<u64> {
    match script {
        ChaosScript::DropServerToClientAfter(n) if server_to_client => Some(n),
        ChaosScript::DropClientToServerAfter(n) if !server_to_client => Some(n),
        _ => None,
    }
}

fn spawn_pumps(
    client: TcpStream,
    server: TcpStream,
    index: u64,
    script: ChaosScript,
    stop: &Arc<AtomicBool>,
    fault: Option<&Arc<FaultInjector>>,
) {
    let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    // server→client carries `NetRead` (bytes the client reads);
    // client→server carries `NetWrite`.
    let stop_a = Arc::clone(stop);
    let stop_b = Arc::clone(stop);
    let fault_a = fault.map(Arc::clone);
    let fault_b = fault.map(Arc::clone);
    thread::spawn(move || {
        pump(
            server,
            client,
            index,
            script,
            true,
            &stop_a,
            fault_a.as_deref(),
        );
    });
    thread::spawn(move || {
        pump(c2, s2, index, script, false, &stop_b, fault_b.as_deref());
    });
}

/// Forward bytes `from` → `to` under the connection's script and any
/// armed injector rules. Returning severs both directions (the `to`
/// shutdown wakes the opposite pump).
fn pump(
    from: TcpStream,
    to: TcpStream,
    index: u64,
    script: ChaosScript,
    server_to_client: bool,
    stop: &AtomicBool,
    fault: Option<&FaultInjector>,
) {
    let stage = if server_to_client {
        FaultStage::NetRead
    } else {
        FaultStage::NetWrite
    };
    let target = format!("conn:{index}");
    let mut budget = byte_budget(script, server_to_client);
    let _ = from.set_read_timeout(Some(Duration::from_millis(100)));
    let mut from = from;
    let mut to_w = match to.try_clone() {
        Ok(s) => s,
        Err(_) => {
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
    };
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        if let Some(fi) = fault {
            match fi.fire(stage, &target) {
                Some(FaultKind::IoError) => break,
                Some(FaultKind::Stall(ms)) => thread::sleep(Duration::from_millis(ms)),
                _ => {}
            }
        }
        match script {
            ChaosScript::Blackhole => continue, // consume, never forward
            ChaosScript::DelayMs(ms) => thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
        let mut send = n as u64;
        let severed = match &mut budget {
            Some(left) => {
                send = send.min(*left);
                *left -= send;
                *left == 0
            }
            None => false,
        };
        if send > 0 && to_w.write_all(&buf[..send as usize]).is_err() {
            break;
        }
        if severed {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to_w.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_healthy_dominated() {
        let plan = Plan::Seeded(42);
        let again = Plan::Seeded(42);
        let healthy = (0..200)
            .filter(|&i| {
                assert_eq!(plan.for_conn(i), again.for_conn(i), "conn {i} reproducible");
                plan.for_conn(i) == ChaosScript::Healthy
            })
            .count();
        assert!(healthy >= 80, "healthy-dominated plan, got {healthy}/200");
        // Different seeds disagree somewhere.
        let other = Plan::Seeded(43);
        assert!((0..200).any(|i| plan.for_conn(i) != other.for_conn(i)));
    }

    #[test]
    fn scripted_plans_run_out_into_healthy() {
        let plan = Plan::Scripted(vec![ChaosScript::Blackhole]);
        assert_eq!(plan.for_conn(0), ChaosScript::Blackhole);
        assert_eq!(plan.for_conn(1), ChaosScript::Healthy);
    }

    #[test]
    fn byte_budgets_attach_to_the_right_direction() {
        let s = ChaosScript::DropServerToClientAfter(9);
        assert_eq!(byte_budget(s, true), Some(9));
        assert_eq!(byte_budget(s, false), None);
        let s = ChaosScript::DropClientToServerAfter(4);
        assert_eq!(byte_budget(s, false), Some(4));
        assert_eq!(byte_budget(s, true), None);
        assert_eq!(byte_budget(ChaosScript::Healthy, true), None);
    }
}
