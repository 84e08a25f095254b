//@ mount: crates/net/src/conn.rs
// The same wait with the daemon's discipline: nothing blocks while the
// inbox guard is held.

use std::sync::Mutex;

fn wait_then_lock(inbox: &Mutex<Vec<u64>>, rx: &std::sync::mpsc::Receiver<u64>) -> u64 {
    let v = rx.recv().unwrap_or(0);
    if let Ok(mut posted) = inbox.lock() {
        posted.push(v);
    }
    v
}
