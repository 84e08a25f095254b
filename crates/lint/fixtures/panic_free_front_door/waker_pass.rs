//@ mount: crates/net/src/conn.rs
// The same operations with the daemon's discipline: a poisoned inbox
// degrades instead of panicking, and nothing blocks while the inbox
// guard is held.

use std::sync::Mutex;

fn take_first(inbox: &Mutex<Vec<u64>>) -> Option<u64> {
    let posted = inbox.lock().ok()?;
    posted.first().copied()
}

fn wait_then_lock(inbox: &Mutex<Vec<u64>>, rx: &std::sync::mpsc::Receiver<u64>) -> u64 {
    let v = rx.recv().unwrap_or(0);
    if let Ok(mut posted) = inbox.lock() {
        posted.push(v);
    }
    v
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let inbox = std::sync::Mutex::new(vec![7u64]);
        assert_eq!(super::take_first(&inbox).unwrap(), 7);
    }
}
