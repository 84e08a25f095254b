//@ mount: crates/net/src/conn.rs
// A connection's waker is shared by its reader, its writer and every
// search's readiness hook: a guard held across a blocking wait stalls
// the writer. The held inbox guard must fire.

use std::sync::Mutex;

fn wait_holding_inbox(inbox: &Mutex<Vec<u64>>, rx: &std::sync::mpsc::Receiver<u64>) -> u64 {
    let guard = inbox.lock();
    let v = rx.recv();
    drop(guard);
    v.unwrap_or(0)
}
