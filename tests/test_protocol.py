import socket
import struct
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pktm import mapreduce
from pktm.mapreduce import engine, protocol
from pktm.mapreduce.protocol import (
    Message,
    ProtocolError,
    parse_hostport,
    recv_message,
    send_message,
)

ALL_TAGS = (protocol.REGISTER, protocol.TASK_ASSIGN, protocol.REDUCE_ASSIGN,
            protocol.DONE, protocol.SHUTDOWN)

MESSAGES = st.builds(Message, st.sampled_from(ALL_TAGS),
                     st.integers(0, 2**32 - 1), st.integers(0, 255),
                     st.text(max_size=20))


def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def sent(data: bytes) -> socket.socket:
    """The reading end of a socketpair whose other end sent ``data``, which
    must fit the pair's buffer, and closed."""
    a, b = pair()
    with a:
        a.sendall(data)
    return b


def read_stream(data: bytes) -> tuple[list[Message], bool]:
    """The messages :func:`recv_message` reads from ``data``, and whether
    the stream ended in a :class:`ProtocolError` rather than a clean EOF.
    Anything else that a call returns or raises fails the test."""
    msgs = []
    with sent(data) as b:
        while True:
            try:
                msg = recv_message(b)
            except ProtocolError:
                return msgs, True
            if msg is None:
                return msgs, False
            assert isinstance(msg, Message)
            msgs.append(msg)


def roundtrip(msg: Message) -> Message:
    frame = msg.encode()
    assert len(frame) == 8 + len(msg.detail.encode("utf-8"))
    msgs, failed = read_stream(frame)
    assert not failed and len(msgs) == 1
    return msgs[0]


class TestEncodeDecode:
    def test_register(self):
        back = roundtrip(Message(protocol.REGISTER, ident=4321,
                                 detail="/tmp/manifest.pkl"))
        assert back.tag == protocol.REGISTER
        assert back.ident == 4321
        assert back.detail == "/tmp/manifest.pkl"

    def test_assign(self):
        back = roundtrip(Message(protocol.TASK_ASSIGN, ident=17))
        assert (back.tag, back.ident) == (protocol.TASK_ASSIGN, 17)

    def test_done_ok(self):
        back = roundtrip(Message(protocol.DONE, ident=3))
        assert back.status == protocol.STATUS_OK
        assert back.detail == ""

    def test_done_failed_carries_detail(self):
        msg = Message(protocol.DONE, ident=9,
                      status=protocol.STATUS_FAILED,
                      detail="ValueError('no')")
        back = roundtrip(msg)
        assert back.status == protocol.STATUS_FAILED
        assert back.detail == "ValueError('no')"

    def test_tags_are_contiguous(self):
        assert ALL_TAGS == (0, 1, 2, 3, 4)

    def test_header_only_frame(self):
        back = roundtrip(Message(protocol.SHUTDOWN))
        assert back == Message(protocol.SHUTDOWN)
        # frame = the 8-byte head, no detail
        assert len(Message(protocol.SHUTDOWN).encode()) == 8

    @pytest.mark.parametrize("tag", ALL_TAGS)
    @pytest.mark.parametrize("detail", ["", "x", "/tmp/manifest.pkl",
                                        "départ — 失败"])
    def test_every_tag_has_one_layout(self, tag, detail):
        msg = Message(tag, ident=2**32 - 1, status=protocol.STATUS_REJECTED,
                      detail=detail)
        frame = msg.encode()
        text = detail.encode("utf-8")
        assert len(frame) == 8 + len(text)
        assert frame[:8] == struct.pack("<BIBH", tag, 2**32 - 1,
                                        protocol.STATUS_REJECTED, len(text))
        assert frame[8:] == text
        assert roundtrip(msg) == msg

    def test_unicode_detail(self):
        back = roundtrip(Message(protocol.DONE, ident=1,
                                 status=1, detail="départ — 失败"))
        assert back.detail == "départ — 失败"

    @pytest.mark.parametrize("tag", [5, 6, 200])
    def test_unknown_tag_encode(self, tag):
        with pytest.raises(ProtocolError, match=f"unknown message tag {tag}"):
            Message(tag=tag).encode()

    def test_unknown_tag_is_refused_before_its_detail(self):
        head = struct.pack("<BIBH", 250, 0, 0, 6)
        with sent(head + b"detail") as b:
            with pytest.raises(ProtocolError, match="unknown message tag 250"):
                recv_message(b)
            assert b.recv(16) == b"detail"   # no detail byte was read

    def test_empty_stream_is_a_clean_eof(self):
        assert read_stream(b"") == ([], False)

    def test_byte_past_the_declared_detail_starts_the_next_frame(self):
        # a SHUTDOWN head declaring no detail, followed by one byte
        head = struct.pack("<BIBH", protocol.SHUTDOWN, 0, 0, 0)
        with sent(head + b"x") as b:
            assert recv_message(b) == Message(protocol.SHUTDOWN)
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                recv_message(b)

    def test_short_head(self):
        with sent(bytes([protocol.TASK_ASSIGN]) + b"\x01") as b:
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                recv_message(b)

    def test_detail_shorter_than_declared(self):
        # declares 5 detail bytes but carries 2
        head = struct.pack("<BIBH", protocol.DONE, 1, 0, 5)
        with sent(head + b"ab") as b:
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                recv_message(b)

    @pytest.mark.parametrize("tag", [5, 6, 7, 255])
    def test_unknown_tag_with_full_header(self, tag):
        with sent(struct.pack("<BIBH", tag, 0, 0, 0)) as b:
            with pytest.raises(ProtocolError,
                               match=f"unknown message tag {tag}"):
                recv_message(b)

    def test_detail_not_utf8(self):
        # a worker that lies: its reply's detail is not UTF-8
        frame = struct.pack("<BIBH", protocol.DONE, 0, 0, 1) + b"\xff"
        with sent(frame) as b:
            with pytest.raises(ProtocolError, match="not UTF-8"):
                recv_message(b)

    def test_overlong_detail_encode(self):
        with pytest.raises(ProtocolError):
            Message(protocol.DONE, detail="x" * 2**16).encode()

    @given(st.binary(max_size=64))
    def test_any_bytes_read_or_protocol_error(self, data):
        """Whatever a peer sends, each read yields a Message, None or a
        ProtocolError, and the messages read re-encode to the bytes they
        came from."""
        msgs, failed = read_stream(data)
        encoded = b"".join(m.encode() for m in msgs)
        if failed:
            assert data.startswith(encoded)
        else:
            assert encoded == data

    @given(st.lists(MESSAGES, min_size=1, max_size=5), st.integers(0),
           st.integers(1, 255))
    def test_one_corrupted_byte(self, msgs, at, flip):
        """Valid frames with one byte changed: the messages read before
        any error re-encode to a prefix of the bytes sent."""
        data = bytearray(b"".join(m.encode() for m in msgs))
        data[at % len(data)] ^= flip
        data = bytes(data)
        got, failed = read_stream(data)
        encoded = b"".join(m.encode() for m in got)
        assert data.startswith(encoded)
        assert failed or encoded == data

    @given(st.sampled_from(ALL_TAGS), st.integers(0, 2**32 - 1),
           st.integers(0, 255), st.binary(max_size=20))
    def test_any_detail_bytes_read_or_protocol_error(self, tag, ident,
                                                     status, detail):
        """Well-framed messages with arbitrary detail bytes, most of them
        not UTF-8, reach the detail check that random bytes rarely do."""
        head = struct.pack("<BIBH", tag, ident, status, len(detail))
        msgs, failed = read_stream(head + detail)
        if not failed:
            assert [m.detail.encode("utf-8") for m in msgs] == [detail]

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2),
           st.text(max_size=100))
    def test_done_roundtrip_property(self, ident, status, detail):
        back = roundtrip(Message(protocol.DONE, ident=ident, status=status,
                                 detail=detail))
        assert (back.tag, back.ident, back.status, back.detail) == \
            (protocol.DONE, ident, status, detail)


class TestSocketHelpers:
    def test_send_recv(self):
        a, b = pair()
        try:
            send_message(a, Message(protocol.REDUCE_ASSIGN, ident=6))
            msg = recv_message(b)
            assert msg.tag == protocol.REDUCE_ASSIGN and msg.ident == 6
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = pair()
        try:
            a.close()
            assert recv_message(b) is None
        finally:
            b.close()

    @pytest.mark.parametrize("cut", [3, 9], ids=["in-head", "in-detail"])
    def test_eof_mid_frame_raises(self, cut):
        frame = Message(protocol.DONE, ident=1, detail="abc").encode()
        with sent(frame[:cut]) as b:
            with pytest.raises(ProtocolError, match="closed mid-frame"):
                recv_message(b)

    def test_longest_frame_is_read(self):
        """A detail of 0xFFFF bytes, the longest the u16 length encodes,
        makes a frame of 8 + 0xFFFF bytes, and it is read back."""
        a, b = pair()
        try:
            msg = Message(protocol.DONE, ident=3, detail="x" * 0xFFFF)
            frame = msg.encode()
            assert len(frame) == 8 + 0xFFFF
            writer = threading.Thread(target=a.sendall, args=(frame,))
            writer.start()
            assert recv_message(b) == msg
            writer.join()
        finally:
            a.close()
            b.close()

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=10),
           st.integers(1, 7))
    def test_any_chunking_reassembles(self, idents, chunk):
        """Frames that arrive in arbitrary pieces, split anywhere, are read
        back whole and in order."""
        a, b = pair()
        try:
            blob = b"".join(Message(protocol.TASK_ASSIGN, ident=i).encode()
                            for i in idents)

            def writer():
                for i in range(0, len(blob), chunk):
                    a.sendall(blob[i:i + chunk])
                    time.sleep(0)   # let the reader take each piece alone
                a.close()

            t = threading.Thread(target=writer)
            t.start()
            seen = []
            while (msg := recv_message(b)) is not None:
                seen.append(msg.ident)
            t.join(timeout=5.0)
            assert not t.is_alive()
            assert seen == idents
        finally:
            a.close()
            b.close()

    def test_many_messages_in_order(self):
        a, b = pair()
        try:
            def writer():
                for i in range(50):
                    send_message(a, Message(protocol.DONE, ident=i,
                                            detail=f"t{i}"))
            t = threading.Thread(target=writer)
            t.start()
            got = [recv_message(b) for _ in range(50)]
            t.join()
            assert [m.ident for m in got] == list(range(50))
            assert got[-1].detail == "t49"
        finally:
            a.close()
            b.close()


class TestParseHostport:
    @pytest.mark.parametrize("text,want", [
        ("127.0.0.1:0", ("127.0.0.1", 0)),       # run_job's default listen
        ("0.0.0.0:5000", ("0.0.0.0", 5000)),
        ("::1:7000", ("::1", 7000)),            # split at the last colon
    ], ids=["default", "explicit", "last-colon"])
    def test_parses(self, text, want):
        assert parse_hostport(text) == want

    @pytest.mark.parametrize("text,match", [
        ("localhost", "expected host:port, got 'localhost'"),
        (":5000", "expected host:port, got ':5000'"),
        ("localhost:http", "bad port in 'localhost:http'"),
    ], ids=["missing-port", "missing-host", "bad-port"])
    def test_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_hostport(text)


def test_map_output_error_is_one_class():
    """Defined beside the status that carries it; the engine and the
    package still export it."""
    assert mapreduce.MapOutputError is protocol.MapOutputError
    assert engine.MapOutputError is protocol.MapOutputError
