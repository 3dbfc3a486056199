//! A delayed link defers delivery without starting a thread: the sender
//! stamps the packet and the receiver holds it until it is due. Its own
//! test binary with one test, so no other test's threads come and go
//! while it counts this process's.
#![cfg(target_os = "linux")]

use embrace_collectives::{run_group_with_faults, FaultPlan, Packet};
use std::time::Duration;

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable").count()
}

#[test]
fn a_delayed_link_starts_no_thread_beyond_its_ranks() {
    let before = threads();
    let plan = FaultPlan::new(0).delay_link(0, 1, Duration::from_millis(200));
    let counts = run_group_with_faults(2, &plan, None, |rank, ep| {
        if rank == 0 {
            // Rank 1's hello proves its thread is running before rank 0
            // counts; the link 1 -> 0 is not delayed.
            assert_eq!(ep.try_recv(1), Ok(Packet::Empty));
            ep.try_send(1, Packet::Empty).unwrap();
            Some(threads())
        } else {
            ep.try_send(0, Packet::Empty).unwrap();
            // Still waiting here when rank 0 counts: the packet is 200 ms out.
            assert_eq!(ep.try_recv(0), Ok(Packet::Empty));
            None
        }
    });
    assert_eq!(counts[0], Some(before + 2), "one thread per rank and no more");
}
