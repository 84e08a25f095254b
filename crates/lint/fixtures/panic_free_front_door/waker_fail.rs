//@ mount: crates/net/src/conn.rs
// A connection's waker is shared by its reader, its writer and every
// search's readiness hook: a panic here kills the connection's threads,
// and a guard held across a blocking wait stalls the writer. The lock
// unwrap, the direct index, and the held guard must all fire.

use std::sync::Mutex;

fn take_first(inbox: &Mutex<Vec<u64>>) -> u64 {
    let posted = inbox.lock().unwrap();
    posted[0]
}

fn wait_holding_inbox(inbox: &Mutex<Vec<u64>>, rx: &std::sync::mpsc::Receiver<u64>) -> u64 {
    let guard = inbox.lock();
    let v = rx.recv();
    drop(guard);
    match v {
        Ok(v) => v,
        Err(_) => take_first(inbox),
    }
}
