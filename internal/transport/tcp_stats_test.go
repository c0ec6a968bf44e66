package transport

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"past/internal/wire"
)

// TestTCPOversizedFrameKeepsConnection queues one frame past MaxFrame
// ahead of several pings: the writer must drop only the oversized frame,
// keep the connection, and deliver every ping without a redial.
func TestTCPOversizedFrameKeepsConnection(t *testing.T) {
	a, err := ListenTCPOpts("127.0.0.1:0", TCPOptions{MaxFrame: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	got := countHandler(b)

	const pings = 5
	a.Send(b.Addr(), wire.ReplicaStore{Data: make([]byte, 1<<20)})
	for i := 0; i < pings; i++ {
		a.Send(b.Addr(), wire.Ping{Nonce: uint64(i)})
	}
	waitFor(t, func() bool { return got() == pings })
	st := a.Stats()
	if st.Dials != 1 {
		t.Fatalf("Dials = %d, want 1 (an oversized frame must not tear down the connection)", st.Dials)
	}
	if st.Oversized != 1 || st.WriteFailures != 0 {
		t.Fatalf("Oversized = %d, WriteFailures = %d; want 1 and 0", st.Oversized, st.WriteFailures)
	}
}

// TestTCPQueueFullCounted floods one peer faster than its writer can
// drain: every frame is either delivered or counted as a queue-full drop.
func TestTCPQueueFullCounted(t *testing.T) {
	a, b := newPair(t)
	got := countHandler(b)
	const sent = 3000
	for i := 0; i < sent; i++ {
		a.Send(b.Addr(), wire.Ping{Nonce: uint64(i)})
	}
	dropped := a.Stats().QueueFull
	if dropped == 0 {
		t.Fatalf("%d back-to-back sends never filled the %d-frame queue", sent, 256)
	}
	waitFor(t, func() bool { return int64(got()) == sent-dropped })
	time.Sleep(20 * time.Millisecond)
	if n := int64(got()); n != sent-dropped || a.Stats().QueueFull != dropped {
		t.Fatalf("delivered %d + dropped %d != sent %d", n, a.Stats().QueueFull, sent)
	}
}

// TestTCPWriteFailureCounted closes the receiver under a live
// connection: the sender's next writes fail, and each failure is counted.
func TestTCPWriteFailureCounted(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := countHandler(b)
	a.Send(b.Addr(), wire.Ping{Nonce: 1})
	waitFor(t, func() bool { return got() == 1 })
	if st := a.Stats(); st.WriteFailures != 0 {
		t.Fatalf("WriteFailures = %d before any failure", st.WriteFailures)
	}
	b.Close()
	waitFor(t, func() bool {
		a.Send(b.Addr(), wire.Ping{Nonce: 2})
		return a.Stats().WriteFailures >= 1
	})
}

// TestTCPDecodeFailureCounted feeds a well-framed but undecodable
// payload and checks the receiver counts it.
func TestTCPDecodeFailureCounted(t *testing.T) {
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("this is not gob")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	conn.Write(hdr[:])
	conn.Write(payload)
	waitFor(t, func() bool { return b.Stats().DecodeFailures == 1 })

	// A frame cut short is a broken connection, not a decode failure.
	conn2, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(hdr[:], 100)
	conn2.Write(hdr[:])
	conn2.Write(make([]byte, 10))
	conn2.Close()
	time.Sleep(50 * time.Millisecond)
	if n := b.Stats().DecodeFailures; n != 1 {
		t.Fatalf("DecodeFailures = %d after a truncated frame, want 1", n)
	}
}
