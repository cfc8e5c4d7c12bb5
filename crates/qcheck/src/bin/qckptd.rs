//! `qckptd` — the remote checkpoint object-store daemon.
//!
//! ```text
//! qckptd serve <root> [--addr host:port]
//!                     [--port-file path] [--auth-token tok]
//!                     [--replicate-from host:port]
//!                     [--lease-ttl-secs n]   serve namespaces from <root>
//! qckptd status <addr>                       print daemon status
//! qckptd metrics <addr>                      print the qobs text exposition
//! qckptd promote <addr>                      promote a secondary to primary
//! qckptd shutdown <addr>                     graceful shutdown
//! ```
//!
//! `serve` defaults to `127.0.0.1:0` (an ephemeral port) and always
//! prints the actual bound address on stdout; `--port-file` additionally
//! writes `host:port` to a file once the listener is up, which is how
//! scripts (CI) wait for readiness and learn the port:
//!
//! ```bash
//! qckptd serve /var/lib/qckptd --port-file /tmp/qckptd.port &
//! export QCHECK_REMOTE_ADDR=$(cat /tmp/qckptd.port)
//! ```
//!
//! Every namespace is a pack store; there is no layout to choose.
//!
//! With `--replicate-from`, the daemon starts as a **secondary**: it
//! tails the primary's per-namespace oplog (refusing client writes) and
//! is promoted to primary with `qckptd promote` when the primary dies.
//! `status`, `promote` and `shutdown` present `QCHECK_REMOTE_TOKEN`
//! when set; a daemon started with `--auth-token` requires it for
//! privileged operations from non-loopback peers (and always requires
//! loopback for shutdown).

use std::process::ExitCode;

use qcheck::remote::proto::{role_name, ROLE_SECONDARY};
use qcheck::remote::{RemoteStore, ReplicateConfig, Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: qckptd serve <root> [--addr host:port] [--port-file path] [--auth-token tok]\n\
         \x20                    [--replicate-from host:port] [--lease-ttl-secs n]\n\
         \x20      qckptd status <addr>\n\
         \x20      qckptd metrics <addr>\n\
         \x20      qckptd promote <addr>\n\
         \x20      qckptd shutdown <addr>"
    );
    ExitCode::from(2)
}

/// Control-plane connections use a reserved namespace; it is never
/// written to (status/metrics/promote/shutdown are namespace-free
/// operations).
const CONTROL_NS: &str = "control";

fn serve(args: &[String]) -> Result<(), String> {
    let mut root: Option<&str> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut port_file: Option<String> = None;
    let mut auth_token: Option<String> = None;
    let mut replicate_from: Option<String> = None;
    let mut lease_ttl: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--port-file" => {
                port_file = Some(it.next().ok_or("--port-file needs a value")?.clone())
            }
            "--auth-token" => {
                auth_token = Some(it.next().ok_or("--auth-token needs a value")?.clone())
            }
            "--replicate-from" => {
                replicate_from = Some(it.next().ok_or("--replicate-from needs a value")?.clone())
            }
            "--lease-ttl-secs" => {
                let v = it.next().ok_or("--lease-ttl-secs needs a value")?;
                lease_ttl =
                    Some(v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--lease-ttl-secs {v}: expected a positive integer")
                    })?);
            }
            other if root.is_none() && !other.starts_with('-') => root = Some(other),
            other => return Err(format!("unrecognized argument '{other}'")),
        }
    }
    let root = root.ok_or("serve needs a <root> directory")?;
    let mut config = ServerConfig::new(root);
    config.auth_token = auth_token.clone();
    if let Some(secs) = lease_ttl {
        config.lease_ttl = std::time::Duration::from_secs(secs);
    }
    if let Some(primary) = &replicate_from {
        let mut repl = ReplicateConfig::new(primary.clone());
        // The tailer authenticates to the primary with the same token
        // this daemon requires of its own clients (a replicated pair
        // shares one token).
        repl.auth_token = auth_token;
        config.replicate = Some(repl);
    }
    let server = Server::bind(&addr, config).map_err(|e| e.to_string())?;
    let bound = server.local_addr();
    match &replicate_from {
        Some(primary) => {
            println!("qckptd: serving {root} on {bound} as secondary of {primary}")
        }
        None => println!("qckptd: serving {root} on {bound}"),
    }
    if let Some(path) = port_file {
        // Stage + rename so a watcher never reads a half-written file.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{bound}\n")).map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    }
    server.serve().map_err(|e| e.to_string())?;
    println!("qckptd: shutdown complete");
    Ok(())
}

fn status(addr: &str) -> Result<(), String> {
    let client = RemoteStore::connect(addr, CONTROL_NS).map_err(|e| e.to_string())?;
    let status = client.status().map_err(|e| e.to_string())?;
    println!("address:       {addr}");
    println!("protocol:      v{}", status.version);
    println!("role:          {}", role_name(status.role));
    println!("generation:    {}", status.generation);
    println!("namespaces:    {}", status.namespaces);
    println!("connections:   {}", status.connections);
    println!("oplog-entries: {}", status.oplog_entries);
    if status.role == ROLE_SECONDARY {
        println!("repl-lag:      {} entries behind primary", status.repl_lag);
    } else {
        println!(
            "repl-lag:      {} entries unacked by secondaries",
            status.repl_lag
        );
    }
    // The daemon also exposes its metrics registry; fold the
    // interesting scalars into status. Absence (QOBS=off on the
    // daemon) is not an error.
    if let Ok(text) = client.metrics() {
        if let Some(secs) = metric_value(&text, "qckptd_uptime_seconds") {
            println!("uptime:        {secs}s");
        }
        let mut ops: Vec<(String, u64)> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("qckptd_requests_total{") {
                if let Some((labels, value)) = rest.split_once("} ") {
                    let op = labels
                        .split(',')
                        .find_map(|kv| kv.strip_prefix("op=\""))
                        .and_then(|v| v.strip_suffix('"'))
                        .unwrap_or(labels);
                    if let Ok(n) = value.trim().parse::<u64>() {
                        ops.push((op.to_string(), n));
                    }
                }
            }
        }
        if !ops.is_empty() {
            ops.sort();
            let mut merged: Vec<(String, u64)> = Vec::new();
            for (op, n) in ops {
                match merged.last_mut() {
                    Some((last, total)) if *last == op => *total += n,
                    _ => merged.push((op, n)),
                }
            }
            let rendered: Vec<String> = merged.iter().map(|(op, n)| format!("{op}={n}")).collect();
            println!("requests:      {}", rendered.join(" "));
        }
    }
    Ok(())
}

/// First sample of an exact (unlabeled) metric in a text exposition.
fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse::<u64>().ok()
    })
}

fn metrics(addr: &str) -> Result<(), String> {
    let client = RemoteStore::connect(addr, CONTROL_NS).map_err(|e| e.to_string())?;
    let text = client.metrics().map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}

fn promote(addr: &str) -> Result<(), String> {
    let client = RemoteStore::connect(addr, CONTROL_NS).map_err(|e| e.to_string())?;
    let generation = client.promote_daemon().map_err(|e| e.to_string())?;
    println!("qckptd at {addr}: promoted to primary at generation {generation}");
    println!("re-point clients (QCHECK_REMOTE_ADDR) at this address; the old primary is fenced");
    Ok(())
}

fn shutdown(addr: &str) -> Result<(), String> {
    let client = RemoteStore::connect(addr, CONTROL_NS).map_err(|e| e.to_string())?;
    client.shutdown_daemon().map_err(|e| e.to_string())?;
    println!("qckptd at {addr}: shutdown acknowledged");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match (cmd.as_str(), rest) {
            ("serve", rest) if !rest.is_empty() => serve(rest),
            ("status", [addr]) => status(addr),
            ("metrics", [addr]) => metrics(addr),
            ("promote", [addr]) => promote(addr),
            ("shutdown", [addr]) => shutdown(addr),
            _ => return usage(),
        },
        None => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("qckptd: {msg}");
            ExitCode::FAILURE
        }
    }
}
