//! Semantics of `syd_types::queue`: FIFO, exactly-once delivery among
//! several receivers, and disconnect on either side.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)] // test code

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use syd_types::queue::{channel, RecvError, SendError};

#[test]
fn messages_arrive_in_fifo_order() {
    let (tx, rx) = channel();
    for i in 0..5 {
        tx.send(i).unwrap();
    }
    assert_eq!(rx.len(), 5);
    let got: Vec<i32> = (0..5).map(|_| rx.recv().unwrap()).collect();
    assert_eq!(got, [0, 1, 2, 3, 4]);
    assert_eq!(rx.try_recv(), Err(RecvError::Empty));
    assert!(rx.is_empty());
}

#[test]
fn buffered_messages_outlive_the_last_sender_then_disconnected() {
    let (tx, rx) = channel();
    let tx2 = tx.clone();
    tx.send(1).unwrap();
    drop(tx);
    assert_eq!(rx.try_recv(), Ok(1));
    assert_eq!(rx.try_recv(), Err(RecvError::Empty));
    tx2.send(2).unwrap();
    drop(tx2);
    assert_eq!(rx.recv(), Ok(2));
    assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    assert_eq!(rx.try_recv(), Err(RecvError::Disconnected));
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)),
        Err(RecvError::Disconnected)
    );
}

#[test]
fn send_fails_once_the_last_receiver_is_gone_and_returns_the_message() {
    let (tx, rx) = channel();
    let rx2 = rx.clone();
    drop(rx);
    tx.send(1).unwrap();
    drop(rx2);
    assert_eq!(tx.send(2), Err(SendError(2)));
}

#[test]
fn a_blocked_receiver_wakes_on_disconnect() {
    let (tx, rx) = channel::<u8>();
    let receiver = std::thread::spawn(move || rx.recv());
    drop(tx);
    assert_eq!(receiver.join().unwrap(), Err(RecvError::Disconnected));
}

#[test]
fn recv_timeout_times_out_on_an_empty_live_queue_then_delivers() {
    let (tx, rx) = channel();
    let t = Instant::now();
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(20)),
        Err(RecvError::Empty)
    );
    assert!(t.elapsed() >= Duration::from_millis(20));
    tx.send(9).unwrap();
    assert_eq!(rx.recv_timeout(Duration::ZERO), Ok(9));
}

#[test]
fn every_message_reaches_exactly_one_of_many_consumers() {
    let (tx, rx) = channel();
    let consumers: Vec<_> = (0..4)
        .map(|_| {
            let rx = rx.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            })
        })
        .collect();
    drop(rx);
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..250 {
                    tx.send(p * 250 + i).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    for p in producers {
        p.join().unwrap();
    }
    let all: Vec<u32> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    assert_eq!(all.len(), 1000);
    assert_eq!(all.iter().copied().collect::<BTreeSet<_>>().len(), 1000);
}
