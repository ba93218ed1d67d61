// The replica stream: how a master's copy of the oriented store reaches a
// node (DESIGN.md §7 "Replica copy", §9 "Replica hygiene"). BeginGraph and
// EndGraph stay RPCs; between them the master dials the node's listener a
// second time and writes the files as one byte stream, which the node
// writes straight into the replica files BeginGraph opened.
//
// On the wire, after streamPreface:
//
//	token length (1 byte), token
//	per file: kind (8 bytes, NUL-padded), size (8 bytes, little-endian), size bytes
//	an empty kind and size 0 to end the stream
//
// and the node answers with the bytes it wrote (8 bytes, little-endian),
// or closes the connection without an answer if it refused the stream.

package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// streamPreface opens a replica stream. Its first byte is what the node's
// listener looks at (Server.serveConn): 0xb7 is never the first byte of a
// gob message, whose length is a byte below 0x80 or a byte count from 0xf8
// up, so a net/rpc client never sends it.
const streamPreface = "\xb7pdtl-replica/1\n"

// streamStep is how many file bytes the master writes at a time: the limiter
// is charged and the write deadline set once per step.
const streamStep = 256 << 10

// fileHeadLen is the size of a file's header: its kind and its size.
const fileHeadLen = 16

// streamHead is a stream's preface and transfer token.
func streamHead(token string) ([]byte, error) {
	if len(token) > 255 {
		return nil, fmt.Errorf("cluster: transfer token of %d bytes", len(token))
	}
	b := append([]byte(streamPreface), byte(len(token)))
	return append(b, token...), nil
}

// fileHead is the header of a file of size bytes of kind (the FileKind
// constants, all shorter than 8 bytes); the empty kind ends the stream.
func fileHead(kind FileKind, size int64) []byte {
	var h [fileHeadLen]byte
	copy(h[:8], kind)
	binary.LittleEndian.PutUint64(h[8:], uint64(size))
	return h[:]
}

// writeStep writes b to conn within copyTimeout.
func writeStep(conn net.Conn, b []byte) error {
	conn.SetWriteDeadline(time.Now().Add(copyTimeout))
	_, err := conn.Write(b)
	return err
}

// streamReplica streams the store files of kinds under base to the node at
// addr for the transfer token, charging lim for every step, and returns the
// file bytes written — also when it fails: they crossed the uplink. Every
// write has copyTimeout to finish, and so has the node's answer, so a node
// that wedges mid-copy fails the copy; cancelling ctx closes the connection.
func streamReplica(ctx context.Context, addr, base, token string, kinds []FileKind, lim *Limiter) (sent int64, err error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer func() {
		// A write that failed because ctx closed the connection reports
		// the cancellation.
		if !stop() && err != nil {
			err = ctx.Err()
		}
	}()
	head, err := streamHead(token)
	if err != nil {
		return 0, err
	}
	if err := writeStep(conn, head); err != nil {
		return 0, err
	}
	for _, kind := range kinds {
		path, err := replicaPath(base, kind)
		if err != nil {
			return sent, err
		}
		k, err := streamFile(ctx, conn, kind, path, lim)
		sent += k
		if err != nil {
			return sent, err
		}
	}
	if err := writeStep(conn, fileHead("", 0)); err != nil {
		return sent, err
	}
	conn.SetReadDeadline(time.Now().Add(copyTimeout))
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return sent, fmt.Errorf("no acknowledgement of the replica stream: %w", err)
	}
	if got := int64(binary.LittleEndian.Uint64(ack[:])); got != sent {
		return sent, fmt.Errorf("the node wrote %d of %d streamed bytes", got, sent)
	}
	return sent, nil
}

// streamFile writes one file's header and bytes to conn, a step at a time,
// and returns the file bytes written.
func streamFile(ctx context.Context, conn net.Conn, kind FileKind, path string, lim *Limiter) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	if err := writeStep(conn, fileHead(kind, size)); err != nil {
		return 0, err
	}
	var sent int64
	for sent < size {
		k := min(size-sent, streamStep)
		if err := lim.Wait(ctx, int(k)); err != nil {
			return sent, err
		}
		conn.SetWriteDeadline(time.Now().Add(copyTimeout))
		// The file's bytes go from the page cache to the socket
		// (sendfile), not through a buffer of ours.
		n, err := io.CopyN(conn, f, k)
		sent += n
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// receive takes one replica stream on c, whose first byte — streamPreface's
// — the caller has read: it writes each file into the replica file
// BeginGraph opened for its kind and answers with the bytes it wrote. A
// stream whose token is not the transfer in progress's writes nothing; once
// the token is accepted, a stream that fails — cut off mid-file, naming a
// kind the transfer has no file for — aborts the transfer, so EndGraph
// refuses it and no replica of it is ever opened.
func (n *Node) receive(c io.ReadWriter) (err error) {
	head := make([]byte, len(streamPreface)) // the preface's rest, the token's length
	if _, err := io.ReadFull(c, head); err != nil {
		return err
	}
	if string(head[:len(head)-1]) != streamPreface[1:] {
		return fmt.Errorf("cluster: node %s: not a replica stream", n.name)
	}
	token := make([]byte, head[len(head)-1])
	if _, err := io.ReadFull(c, token); err != nil {
		return err
	}
	tok := string(token)
	if _, err := n.incomingFile(tok, ""); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			n.mu.Lock()
			if n.incoming != nil && n.curToken == tok {
				n.abortLocked()
			}
			n.mu.Unlock()
		}
	}()
	var got int64
	for {
		var h [fileHeadLen]byte
		if _, err := io.ReadFull(c, h[:]); err != nil {
			return err
		}
		kind := FileKind(bytes.TrimRight(h[:8], "\x00"))
		size := int64(binary.LittleEndian.Uint64(h[8:]))
		if kind == "" {
			break
		}
		f, err := n.incomingFile(tok, kind)
		if err != nil {
			return err
		}
		k, err := io.CopyN(f, c, size)
		got += k
		n.mu.Lock()
		current := n.curToken == tok
		if current {
			n.received += k
		}
		n.mu.Unlock()
		switch {
		case !current:
			// Superseded mid-file: BeginGraph closed f, and whatever
			// reached it went to the removed file.
			return fmt.Errorf("cluster: node %s: transfer superseded", n.name)
		case err != nil:
			return err
		}
	}
	var ack [8]byte
	binary.LittleEndian.PutUint64(ack[:], uint64(got))
	_, err = c.Write(ack[:])
	return err
}

// incomingFile returns the replica file of kind of the transfer token opened;
// the empty kind only checks that token is the transfer in progress.
func (n *Node) incomingFile(token string, kind FileKind) (*os.File, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.incoming == nil {
		return nil, fmt.Errorf("cluster: node %s: no transfer in progress", n.name)
	}
	if token != n.curToken {
		return nil, fmt.Errorf("cluster: node %s: transfer superseded", n.name)
	}
	if kind == "" {
		return nil, nil
	}
	f, ok := n.incoming[kind]
	if !ok {
		return nil, fmt.Errorf("cluster: node %s: unknown file kind %q", n.name, kind)
	}
	return f, nil
}
