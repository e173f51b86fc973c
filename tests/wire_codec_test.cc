#include "protocol/wire_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "protocol/messages.h"

namespace dcp::protocol {
namespace {

using storage::Update;

/// Encodes `msg`, decodes the bytes, and returns the round-tripped copy
/// (failing the test on either direction).
net::Message RoundTrip(const net::Message& msg) {
  std::vector<uint8_t> wire = EncodeMessage(msg);
  EXPECT_FALSE(wire.empty()) << "unencodable message type " << msg.type.str();
  net::Message out;
  EXPECT_TRUE(DecodeMessage(wire.data(), wire.size(), &out));
  EXPECT_EQ(out.src, msg.src);
  EXPECT_EQ(out.dst, msg.dst);
  EXPECT_EQ(out.rpc_id, msg.rpc_id);
  EXPECT_EQ(out.kind, msg.kind);
  EXPECT_EQ(out.type, msg.type);
  EXPECT_EQ(out.status.code(), msg.status.code());
  EXPECT_EQ(out.status.message(), msg.status.message());
  return out;
}

net::Message Request(const char* type, net::PayloadPtr payload) {
  net::Message msg;
  msg.src = 2;
  msg.dst = 5;
  msg.rpc_id = 77;
  msg.kind = net::Message::Kind::kRequest;
  msg.type = type;
  msg.payload = std::move(payload);
  return msg;
}

net::Message Response(const char* type, net::PayloadPtr payload,
                      Status status = Status::OK()) {
  net::Message msg;
  msg.src = 5;
  msg.dst = 2;
  msg.rpc_id = 77;
  msg.kind = net::Message::Kind::kResponse;
  msg.type = net::TypeName(type).Reply();
  msg.payload = std::move(payload);
  msg.status = std::move(status);
  return msg;
}

TEST(WireCodecTest, LockRequestRoundTrips) {
  auto p = std::make_shared<LockRequest>();
  p->owner = {3, 41};
  p->mode = LockMode::kShared;
  p->object = 7;
  p->op_started = 123.456;
  net::Message out = RoundTrip(Request(msg::kLock, p));
  const auto& q = net::As<LockRequest>(out.payload);
  EXPECT_EQ(q.owner.coordinator, 3u);
  EXPECT_EQ(q.owner.operation_id, 41u);
  EXPECT_EQ(q.mode, LockMode::kShared);
  EXPECT_EQ(q.object, 7u);
  EXPECT_DOUBLE_EQ(q.op_started, 123.456);
}

TEST(WireCodecTest, LockResponseRoundTrips) {
  auto p = std::make_shared<LockResponse>();
  p->state.node = 4;
  p->state.version = 19;
  p->state.dversion = 21;
  p->state.stale = true;
  p->state.elist = NodeSet{0, 2, 4};
  p->state.enumber = 6;
  net::Message out = RoundTrip(Response(msg::kLock, p));
  const auto& q = net::As<LockResponse>(out.payload);
  EXPECT_EQ(q.state.node, 4u);
  EXPECT_EQ(q.state.version, 19u);
  EXPECT_EQ(q.state.dversion, 21u);
  EXPECT_TRUE(q.state.stale);
  EXPECT_EQ(q.state.elist.ToVector(), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(q.state.enumber, 6u);
  EXPECT_FALSE(q.has_data);
  EXPECT_TRUE(q.data.empty());
}

TEST(WireCodecTest, LockResponseCarriesReadData) {
  auto p = std::make_shared<LockResponse>();
  p->state.node = 1;
  p->state.version = 12;
  p->state.elist = NodeSet{0, 1, 2};
  p->has_data = true;
  p->data = {5, 0, 255, 7};
  net::Message out = RoundTrip(Response(msg::kLock, p));
  const auto& q = net::As<LockResponse>(out.payload);
  EXPECT_EQ(q.state.version, 12u);
  EXPECT_TRUE(q.has_data);
  EXPECT_EQ(q.data, (std::vector<uint8_t>{5, 0, 255, 7}));

  // A zero-length object is valid data: presence is the flag, not size.
  p->data.clear();
  out = RoundTrip(Response(msg::kLock, p));
  EXPECT_TRUE(net::As<LockResponse>(out.payload).has_data);
  EXPECT_TRUE(net::As<LockResponse>(out.payload).data.empty());
}

TEST(WireCodecTest, UnlockAndAckRoundTrip) {
  auto p = std::make_shared<UnlockRequest>();
  p->owner = {1, 9};
  net::Message out = RoundTrip(Request(msg::kUnlock, p));
  EXPECT_EQ(net::As<UnlockRequest>(out.payload).owner.operation_id, 9u);

  net::Message ack = RoundTrip(Response(msg::kUnlock,
                                        std::make_shared<AckResponse>()));
  EXPECT_NE(dynamic_cast<const AckResponse*>(ack.payload.get()), nullptr);
}

TEST(WireCodecTest, FetchRoundTrips) {
  auto req = std::make_shared<FetchRequest>();
  req->owner = {0, 5};
  req->object = 2;
  net::Message out = RoundTrip(Request(msg::kFetch, req));
  EXPECT_EQ(net::As<FetchRequest>(out.payload).object, 2u);

  auto resp = std::make_shared<FetchResponse>();
  resp->version = 44;
  resp->data = {9, 8, 7};
  out = RoundTrip(Response(msg::kFetch, resp));
  const auto& q = net::As<FetchResponse>(out.payload);
  EXPECT_EQ(q.version, 44u);
  EXPECT_EQ(q.data, (std::vector<uint8_t>{9, 8, 7}));
}

TEST(WireCodecTest, PrepareRequestRoundTripsStagedAction) {
  auto p = std::make_shared<PrepareRequest>();
  p->owner = {2, 13};
  p->participants = NodeSet{0, 1, 2, 3};
  p->action.install_epoch = true;
  p->action.epoch_number = 3;
  p->action.epoch_list = NodeSet{0, 1, 2};
  ObjectAction oa;
  oa.object = 1;
  oa.apply_update = true;
  oa.update = Update::Partial(4, {1, 2, 3});
  oa.update_target_version = 8;
  oa.mark_stale = true;
  oa.desired_version = 8;
  oa.propagate_to = NodeSet{3};
  p->action.objects.push_back(oa);

  net::Message out = RoundTrip(Request(msg::kPrepare, p));
  const auto& q = net::As<PrepareRequest>(out.payload);
  EXPECT_TRUE(q.action.install_epoch);
  EXPECT_EQ(q.action.epoch_number, 3u);
  EXPECT_EQ(q.action.epoch_list.ToVector(), (std::vector<NodeId>{0, 1, 2}));
  ASSERT_EQ(q.action.objects.size(), 1u);
  EXPECT_TRUE(q.action.objects[0].apply_update);
  EXPECT_FALSE(q.action.objects[0].update.total);
  EXPECT_EQ(q.action.objects[0].update.offset, 4u);
  EXPECT_EQ(q.action.objects[0].update.bytes, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(q.participants.ToVector(), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(q.polled.empty());
}

TEST(WireCodecTest, PrepareRequestRoundTripsPolledTuples) {
  auto p = std::make_shared<PrepareRequest>();
  p->owner = {8, 3};
  p->participants = NodeSet{1, 8};
  p->action.install_epoch = true;
  p->action.epoch_number = 5;
  p->action.epoch_list = NodeSet{1, 8};
  p->polled = {{0, 17, 0, false}, {3, 9, 12, true}};
  net::Message out = RoundTrip(Request(msg::kPrepare, p));
  const auto& q = net::As<PrepareRequest>(out.payload);
  EXPECT_EQ(q.polled, p->polled);
  EXPECT_EQ(q.action.epoch_number, 5u);
  EXPECT_EQ(q.participants.ToVector(), (std::vector<NodeId>{1, 8}));

  // A scoped install's prepare polls exactly its object.
  p->action.epoch_scoped = true;
  p->action.epoch_object = 3;
  p->polled = {{3, 9, 12, true}};
  out = RoundTrip(Request(msg::kPrepare, p));
  const auto& scoped = net::As<PrepareRequest>(out.payload);
  EXPECT_TRUE(scoped.action.epoch_scoped);
  EXPECT_EQ(scoped.action.epoch_object, 3u);
  EXPECT_EQ(scoped.polled, p->polled);
}

TEST(WireCodecTest, TwoPhaseControlMessagesRoundTrip) {
  auto c = std::make_shared<CommitRequest>();
  c->owner = {1, 2};
  EXPECT_EQ(net::As<CommitRequest>(
                RoundTrip(Request(msg::kCommit, c)).payload).owner.coordinator,
            1u);

  auto a = std::make_shared<AbortRequest>();
  a->owner = {3, 4};
  EXPECT_EQ(net::As<AbortRequest>(
                RoundTrip(Request(msg::kAbort, a)).payload).owner.operation_id,
            4u);

  auto o = std::make_shared<OutcomeRequest>();
  o->owner = {5, 6};
  RoundTrip(Request(msg::kOutcome, o));

  auto r = std::make_shared<OutcomeResponse>();
  r->outcome = TxOutcome::kCommitted;
  r->is_coordinator = true;
  r->in_progress = false;
  net::Message out = RoundTrip(Response(msg::kOutcome, r));
  const auto& q = net::As<OutcomeResponse>(out.payload);
  EXPECT_EQ(q.outcome, TxOutcome::kCommitted);
  EXPECT_TRUE(q.is_coordinator);
}

TEST(WireCodecTest, EpochPollRoundTrips) {
  RoundTrip(Request(msg::kEpochPoll, std::make_shared<EpochPollRequest>()));

  auto p = std::make_shared<EpochPollResponse>();
  p->node = 3;
  p->enumber = 9;
  p->elist = NodeSet{1, 3};
  p->objects.push_back(ObjectStateTuple{0, 5, 6, true});
  p->objects.push_back(ObjectStateTuple{1, 7, 7, false});
  net::Message out = RoundTrip(Response(msg::kEpochPoll, p));
  const auto& q = net::As<EpochPollResponse>(out.payload);
  ASSERT_EQ(q.objects.size(), 2u);
  EXPECT_EQ(q.objects[0].dversion, 6u);
  EXPECT_TRUE(q.objects[0].stale);
  EXPECT_EQ(q.objects[1].version, 7u);
}

TEST(WireCodecTest, PropagationRoundTrips) {
  auto offer = std::make_shared<PropagationOffer>();
  offer->object = 1;
  offer->source_version = 12;
  offer->transfer_id = 99;
  RoundTrip(Request(msg::kPropOffer, offer));

  auto verdict = std::make_shared<PropagationOfferReply>();
  verdict->verdict = PropagationVerdict::kPermitted;
  verdict->target_version = 10;
  net::Message verdict_out = RoundTrip(Response(msg::kPropOffer, verdict));
  const auto& v = net::As<PropagationOfferReply>(verdict_out.payload);
  EXPECT_EQ(v.verdict, PropagationVerdict::kPermitted);
  EXPECT_EQ(v.target_version, 10u);

  auto data = std::make_shared<PropagationData>();
  data->object = 1;
  data->transfer_id = 99;
  data->snapshot = true;
  data->snapshot_version = 12;
  data->updates.push_back(Update::Total({5, 5}));
  net::Message data_out = RoundTrip(Request(msg::kPropData, data));
  const auto& d = net::As<PropagationData>(data_out.payload);
  ASSERT_EQ(d.updates.size(), 1u);
  EXPECT_TRUE(d.updates[0].total);
  EXPECT_EQ(d.updates[0].bytes, (std::vector<uint8_t>{5, 5}));

  auto reply = std::make_shared<PropagationDataReply>();
  reply->new_version = 12;
  EXPECT_EQ(net::As<PropagationDataReply>(
                RoundTrip(Response(msg::kPropData, reply)).payload).new_version,
            12u);
}

TEST(WireCodecTest, RemovedElectionTagsDecodeAsMalformed) {
  // Body tags 18-20 carried the bully election's request, response and
  // leader announcement. They were the codec's last three tags, so no
  // kept tag moved when they went; a frame carrying one is malformed now,
  // whatever body follows it.
  std::vector<uint8_t> frame = EncodeMessage(Request("election", nullptr));
  ASSERT_FALSE(frame.empty());
  ASSERT_EQ(frame.back(), 0u);  // Body::kNone ends a payload-less frame.
  const std::vector<std::vector<uint8_t>> bodies = {
      {18}, {19, 1}, {20, 4, 0, 0, 0}};
  for (const std::vector<uint8_t>& body : bodies) {
    std::vector<uint8_t> wire(frame.begin(), frame.end() - 1);
    wire.insert(wire.end(), body.begin(), body.end());
    net::Message out;
    EXPECT_FALSE(DecodeMessage(wire.data(), wire.size(), &out))
        << "body tag " << int(body[0]);
  }

  // The last kept tag is unchanged: a PropagationDataReply is tag 17,
  // followed by its 8-byte version.
  std::vector<uint8_t> kept = EncodeMessage(
      Response(msg::kPropData, std::make_shared<PropagationDataReply>()));
  ASSERT_GE(kept.size(), 9u);
  EXPECT_EQ(kept[kept.size() - 9], 17u);
}

TEST(WireCodecTest, ErrorStatusSurvivesTheWire) {
  net::Message msg = Response(msg::kLock, nullptr,
                              Status::Conflict("lock held by 3/12"));
  net::Message out = RoundTrip(msg);
  EXPECT_TRUE(out.status.IsConflict());
  EXPECT_EQ(out.status.message(), "lock held by 3/12");
  EXPECT_EQ(out.payload, nullptr);
}

TEST(WireCodecTest, CallFailedNotificationRoundTrips) {
  net::Message msg;
  msg.src = 1;
  msg.dst = 1;
  msg.rpc_id = 5;
  msg.kind = net::Message::Kind::kCallFailed;
  msg.type = net::TypeName(msg::kLock).Reply();
  msg.status = Status::CallFailed("node 2 unreachable");
  net::Message out = RoundTrip(msg);
  EXPECT_TRUE(out.status.IsCallFailed());
}

TEST(WireCodecTest, RejectsMalformedInput) {
  net::Message msg = Request(msg::kLock, std::make_shared<LockRequest>());
  std::vector<uint8_t> wire = EncodeMessage(msg);
  ASSERT_FALSE(wire.empty());

  net::Message out;
  // Bad magic.
  std::vector<uint8_t> bad = wire;
  bad[0] ^= 0xff;
  EXPECT_FALSE(DecodeMessage(bad.data(), bad.size(), &out));
  // Truncations at every prefix length must fail, never crash.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeMessage(wire.data(), len, &out)) << "len=" << len;
  }
  EXPECT_FALSE(DecodeMessage(nullptr, 0, &out));
}

/// Overwrites the little-endian u32 at `offset` of `wire`.
void PatchU32(std::vector<uint8_t>& wire, size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    wire[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

TEST(WireCodecTest, RejectsMalformedLockData) {
  auto p = std::make_shared<LockResponse>();
  p->state.elist = NodeSet{0, 1};
  p->has_data = true;
  p->data = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint8_t> wire = EncodeMessage(Response(msg::kLock, p));
  ASSERT_FALSE(wire.empty());
  net::Message out;
  ASSERT_TRUE(DecodeMessage(wire.data(), wire.size(), &out));
  // Truncated data: every prefix fails.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeMessage(wire.data(), len, &out)) << "len=" << len;
  }
  // A data length past the end of the frame fails instead of reading on.
  const size_t length_at = wire.size() - p->data.size() - 4;
  for (uint32_t bad : {9u, 0x10000u, 0xffffffffu}) {
    std::vector<uint8_t> oversized = wire;
    PatchU32(oversized, length_at, bad);
    EXPECT_FALSE(DecodeMessage(oversized.data(), oversized.size(), &out))
        << "length " << bad;
  }
}

TEST(WireCodecTest, RejectsMalformedPolledTuples) {
  auto p = std::make_shared<PrepareRequest>();
  p->participants = NodeSet{0, 1};
  p->polled = {{0, 1, 0, false}, {1, 2, 3, true}};
  std::vector<uint8_t> wire = EncodeMessage(Request(msg::kPrepare, p));
  ASSERT_FALSE(wire.empty());
  net::Message out;
  ASSERT_TRUE(DecodeMessage(wire.data(), wire.size(), &out));
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeMessage(wire.data(), len, &out)) << "len=" << len;
  }
  // Each tuple is object u32, version u64, dversion u64, stale u8.
  const size_t count_at = wire.size() - p->polled.size() * 21 - 4;
  for (uint32_t bad : {3u, 1000u, 0xffffffffu}) {
    std::vector<uint8_t> oversized = wire;
    PatchU32(oversized, count_at, bad);
    EXPECT_FALSE(DecodeMessage(oversized.data(), oversized.size(), &out))
        << "count " << bad;
  }
}

TEST(WireCodecTest, MakeWireCodecIsWiredUp) {
  rt::WireCodec codec = MakeWireCodec();
  ASSERT_TRUE(codec.encode && codec.decode);
  net::Message msg = Request(msg::kFetch, std::make_shared<FetchRequest>());
  std::vector<uint8_t> wire;
  ASSERT_TRUE(codec.encode(msg, &wire));
  ASSERT_FALSE(wire.empty());
  net::Message out;
  EXPECT_TRUE(codec.decode(wire.data(), wire.size(), &out));
  EXPECT_EQ(out.type, msg.type);
}

TEST(WireCodecTest, EncodeIntoPreservesCallerPrefix) {
  // The socket transport reserves its 4-byte frame header in the buffer
  // before encoding; the encoder must append after it, and a failed
  // encode must restore the buffer to exactly the prefix.
  net::Message msg = Request(msg::kFetch, std::make_shared<FetchRequest>());
  std::vector<uint8_t> with_prefix = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(EncodeMessageInto(msg, &with_prefix));
  ASSERT_GT(with_prefix.size(), 4u);
  EXPECT_EQ(with_prefix[0], 0xde);
  EXPECT_EQ(with_prefix[3], 0xef);

  // Appended bytes equal a from-scratch encode.
  std::vector<uint8_t> plain = EncodeMessage(msg);
  ASSERT_EQ(with_prefix.size() - 4, plain.size());
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), with_prefix.begin() + 4));

  // Unencodable payload type: prefix survives untouched.
  struct AlienPayload : net::Payload {};
  net::Message bogus;
  bogus.src = 0;
  bogus.dst = 1;
  bogus.kind = net::Message::Kind::kRequest;
  bogus.type = net::TypeName("not-a-wire-type");
  bogus.payload = std::make_shared<AlienPayload>();
  std::vector<uint8_t> prefix_only = {0x01, 0x02};
  EXPECT_FALSE(EncodeMessageInto(bogus, &prefix_only));
  EXPECT_EQ(prefix_only, (std::vector<uint8_t>{0x01, 0x02}));
}

}  // namespace
}  // namespace dcp::protocol
