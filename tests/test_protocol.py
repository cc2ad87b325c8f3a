import socket
import struct
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pktm.mapreduce import protocol
from pktm.mapreduce.protocol import (
    FrameBuffer,
    Message,
    ProtocolError,
    decode_payload,
    recv_message,
    send_message,
)

ALL_TAGS = (protocol.REGISTER, protocol.TASK_ASSIGN, protocol.TASK_DONE,
            protocol.REDUCE_ASSIGN, protocol.REDUCE_DONE, protocol.SHUTDOWN)


def roundtrip(msg: Message) -> Message:
    frame = msg.encode()
    size = struct.unpack_from("<I", frame, 0)[0]
    assert size == len(frame) - 4
    return decode_payload(frame[4:])


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
        back = roundtrip(Message(protocol.TASK_DONE, ident=3))
        assert back.status == protocol.STATUS_OK
        assert back.detail == ""

    def test_done_failed_carries_detail(self):
        msg = Message(protocol.REDUCE_DONE, ident=9,
                      status=protocol.STATUS_FAILED,
                      detail="ValueError('no')")
        back = roundtrip(msg)
        assert back.status == protocol.STATUS_FAILED
        assert back.detail == "ValueError('no')"

    def test_empty_body_tags(self):
        back = roundtrip(Message(protocol.SHUTDOWN))
        assert back.tag == protocol.SHUTDOWN
        # frame = 4-byte length + 1-byte tag
        assert len(Message(protocol.SHUTDOWN).encode()) == 5

    def test_former_heartbeat_tag_is_unknown(self):
        with pytest.raises(ProtocolError, match="unknown message tag 6"):
            decode_payload(bytes([6]))
        with pytest.raises(ProtocolError):
            Message(tag=6).encode()

    def test_unicode_detail(self):
        back = roundtrip(Message(protocol.TASK_DONE, ident=1,
                                 status=1, detail="départ — 失败"))
        assert back.detail == "départ — 失败"

    def test_unknown_tag_encode(self):
        with pytest.raises(ProtocolError):
            Message(tag=200).encode()

    def test_unknown_tag_decode(self):
        with pytest.raises(ProtocolError):
            decode_payload(bytes([250]) + b"\x00" * 4)

    def test_empty_payload(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"")

    def test_body_on_bodyless_tag(self):
        with pytest.raises(ProtocolError):
            decode_payload(bytes([protocol.SHUTDOWN]) + b"x")

    def test_short_body(self):
        with pytest.raises(ProtocolError):
            decode_payload(bytes([protocol.TASK_ASSIGN]) + b"\x01")

    def test_length_mismatch_in_detail(self):
        # claims 5 detail bytes but carries 2
        body = struct.pack("<IBH", 1, 0, 5) + b"ab"
        with pytest.raises(ProtocolError):
            decode_payload(bytes([protocol.TASK_DONE]) + body)

    @given(st.sampled_from([protocol.TASK_DONE, protocol.REDUCE_DONE]),
           st.integers(0, 2**32 - 1), st.integers(0, 1),
           st.text(max_size=100))
    def test_done_roundtrip_property(self, tag, ident, status, detail):
        back = roundtrip(Message(tag, ident=ident, status=status,
                                 detail=detail))
        assert (back.tag, back.ident, back.status, back.detail) == \
            (tag, ident, status, detail)


class TestFrameBuffer:
    def test_single_frame(self):
        fb = FrameBuffer()
        out = fb.feed(Message(protocol.TASK_ASSIGN, ident=5).encode())
        assert len(out) == 1 and out[0].ident == 5

    def test_byte_at_a_time(self):
        fb = FrameBuffer()
        frame = Message(protocol.REGISTER, ident=1, detail="abc").encode()
        seen = []
        for i in range(len(frame)):
            seen.extend(fb.feed(frame[i:i + 1]))
        assert len(seen) == 1
        assert seen[0].detail == "abc"

    def test_multiple_frames_in_one_feed(self):
        fb = FrameBuffer()
        blob = b"".join(Message(protocol.TASK_ASSIGN, ident=i).encode()
                        for i in range(4))
        out = fb.feed(blob)
        assert [m.ident for m in out] == [0, 1, 2, 3]

    def test_partial_then_rest(self):
        fb = FrameBuffer()
        frame = Message(protocol.TASK_DONE, ident=2, detail="xy").encode()
        assert fb.feed(frame[:7]) == []
        out = fb.feed(frame[7:])
        assert len(out) == 1 and out[0].detail == "xy"

    def test_oversized_frame_rejected(self):
        fb = FrameBuffer()
        with pytest.raises(ProtocolError):
            fb.feed(struct.pack("<I", protocol.MAX_FRAME + 1))

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=10),
           st.integers(1, 7))
    def test_any_chunking_reassembles(self, idents, chunk):
        fb = FrameBuffer()
        blob = b"".join(Message(protocol.TASK_ASSIGN, ident=i).encode()
                        for i in idents)
        seen = []
        for i in range(0, len(blob), chunk):
            seen.extend(fb.feed(blob[i:i + chunk]))
        assert [m.ident for m in seen] == idents


class TestSocketHelpers:
    def pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_send_recv(self):
        a, b = self.pair()
        try:
            send_message(a, Message(protocol.REDUCE_ASSIGN, ident=6))
            msg = recv_message(b)
            assert msg.tag == protocol.REDUCE_ASSIGN and msg.ident == 6
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = self.pair()
        try:
            a.close()
            assert recv_message(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = self.pair()
        try:
            frame = Message(protocol.TASK_ASSIGN, ident=1).encode()
            a.sendall(frame[:3])
            a.close()
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_raises(self):
        a, b = self.pair()
        try:
            a.sendall(struct.pack("<I", protocol.MAX_FRAME + 10))
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_many_messages_in_order(self):
        a, b = self.pair()
        try:
            def writer():
                for i in range(50):
                    send_message(a, Message(protocol.TASK_DONE, ident=i,
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
