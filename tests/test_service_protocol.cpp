// Service protocol: JSON parse/serialize and the request/response and
// result-payload round trips for every operation type.
#include <gtest/gtest.h>

#include <string>

#include "service/protocol.h"
#include "util/error.h"

namespace pviz::service {
namespace {

// --- Json -----------------------------------------------------------------

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json::parse("null").dump(), "null");
  EXPECT_EQ(Json::parse("true").dump(), "true");
  EXPECT_EQ(Json::parse("false").dump(), "false");
  EXPECT_EQ(Json::parse("42").dump(), "42");
  EXPECT_EQ(Json::parse("-3.25").dump(), "-3.25");
  EXPECT_EQ(Json::parse("\"hi\"").dump(), "\"hi\"");
}

TEST(Json, StructureRoundTrip) {
  const std::string text =
      R"({"op":"study","sizes":[32,64],"nested":{"a":true,"b":null}})";
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(Json, StringEscapes) {
  const Json v = Json::parse(R"("line\nbreak\ttab \"quoted\" A")");
  EXPECT_EQ(v.asString(), "line\nbreak\ttab \"quoted\" A");
  // Dump re-escapes control characters.
  EXPECT_EQ(Json(std::string("a\nb")).dump(), "\"a\\nb\"");
}

TEST(Json, WhitespaceTolerant) {
  const Json v = Json::parse("  { \"a\" : [ 1 , 2 ] }  ");
  EXPECT_EQ(v.find("a")->asArray().size(), 2u);
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("{\"a\":}"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
  EXPECT_THROW(Json::parse("{} trailing"), Error);
  EXPECT_THROW(Json::parse("1.2.3"), Error);
}

TEST(Json, TypeMismatchThrows) {
  const Json v = Json::parse("{\"a\":1}");
  EXPECT_THROW(v.asArray(), Error);
  EXPECT_THROW(v.find("a")->asString(), Error);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, DumpIsSingleLine) {
  Json v = Json::object();
  v.set("text", "has\nnewline");
  EXPECT_EQ(v.dump().find('\n'), std::string::npos);
}

// Regression: the recursive-descent parser used to recurse once per
// nesting level with no bound, so a remotely supplied "[[[[..." frame
// could overflow the stack.  Depth past the cap must be a parse error,
// not a crash.
TEST(Json, NestingDepthIsBounded) {
  auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  // At the default bound: parses.
  EXPECT_NO_THROW(Json::parse(nested(Json::kDefaultMaxDepth)));
  // One past it: clean error.
  EXPECT_THROW(Json::parse(nested(Json::kDefaultMaxDepth + 1)), Error);
  // Deep enough that unbounded recursion would have crashed the
  // process rather than thrown.
  EXPECT_THROW(Json::parse(nested(1u << 20)), Error);
  // Objects count toward the same bound as arrays.
  std::string deepObject;
  for (std::size_t i = 0; i <= Json::kDefaultMaxDepth; ++i) {
    deepObject += "{\"k\":";
  }
  deepObject += "null";
  deepObject.append(Json::kDefaultMaxDepth + 1, '}');
  EXPECT_THROW(Json::parse(deepObject), Error);
}

TEST(Json, NestingDepthIsConfigurable) {
  EXPECT_THROW(Json::parse("[[1]]", 1), Error);
  EXPECT_NO_THROW(Json::parse("[[1]]", 2));
  const Json v = Json::parse("[[[[[1]]]]]", 5);
  EXPECT_EQ(v.dump(), "[[[[[1]]]]]");
  // A failed parse names the bound in its message.
  try {
    Json::parse("[[[]]]", 2);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 2"),
              std::string::npos);
  }
}

// --- Requests -------------------------------------------------------------

void expectRequestRoundTrip(const Request& request) {
  const Request parsed = requestFromJson(Json::parse(toJson(request).dump()));
  EXPECT_EQ(parsed.op, request.op);
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_EQ(parsed.algorithm, request.algorithm);
  EXPECT_EQ(parsed.size, request.size);
  EXPECT_EQ(parsed.algorithms, request.algorithms);
  EXPECT_EQ(parsed.sizes, request.sizes);
  EXPECT_EQ(parsed.capsWatts, request.capsWatts);
  EXPECT_EQ(parsed.cycles, request.cycles);
  EXPECT_DOUBLE_EQ(parsed.budgetWatts, request.budgetWatts);
  EXPECT_EQ(parsed.simSteps, request.simSteps);
  EXPECT_DOUBLE_EQ(parsed.delayMs, request.delayMs);
  EXPECT_EQ(parsed.backend, request.backend);
  EXPECT_EQ(parsed.advectSeeds, request.advectSeeds);
  EXPECT_EQ(parsed.advectSteps, request.advectSteps);
  EXPECT_EQ(parsed.advectMode, request.advectMode);
  EXPECT_EQ(parsed.blocks, request.blocks);
  EXPECT_EQ(parsed.ghost, request.ghost);
}

TEST(Protocol, PingRoundTrip) {
  Request request;
  request.op = Op::Ping;
  request.id = "p1";
  request.delayMs = 12.5;
  expectRequestRoundTrip(request);
}

TEST(Protocol, StatsRoundTrip) {
  Request request;
  request.op = Op::Stats;
  request.id = "s1";
  expectRequestRoundTrip(request);
}

TEST(Protocol, CharacterizeRoundTrip) {
  Request request;
  request.op = Op::Characterize;
  request.id = "c1";
  request.algorithm = core::Algorithm::RayTracing;
  request.size = 64;
  expectRequestRoundTrip(request);
}

TEST(Protocol, ClassifyRoundTrip) {
  Request request;
  request.op = Op::Classify;
  request.algorithm = core::Algorithm::VolumeRendering;
  request.size = 32;
  request.capsWatts = {120, 80, 40};
  expectRequestRoundTrip(request);
}

TEST(Protocol, StudyRoundTrip) {
  Request request;
  request.op = Op::Study;
  request.id = "batch-7";
  request.algorithms = {core::Algorithm::Contour, core::Algorithm::Slice};
  request.sizes = {32, 64};
  request.capsWatts = {120, 60};
  request.cycles = 5;
  expectRequestRoundTrip(request);
}

TEST(Protocol, BudgetRoundTrip) {
  Request request;
  request.op = Op::Budget;
  request.algorithm = core::Algorithm::Threshold;
  request.size = 128;
  request.budgetWatts = 65.0;
  request.simSteps = 12;
  expectRequestRoundTrip(request);
}

TEST(Protocol, BackendFieldRoundTrip) {
  Request request;
  request.op = Op::Classify;
  request.algorithm = core::Algorithm::Contour;
  request.size = 64;
  request.backend = "threaded";
  expectRequestRoundTrip(request);
  // Empty backend (the default) is omitted from the wire form entirely.
  Request plain;
  plain.op = Op::Ping;
  EXPECT_EQ(toJson(plain).find("backend"), nullptr);
  // The backend never reaches the cache key: both backends are
  // bit-identical, so serial and threaded must share a cache entry.
  Request other = request;
  other.backend = "serial";
  EXPECT_EQ(canonicalCacheKey(request), canonicalCacheKey(other));
  // An unknown token — including the retired "vectorized" — is
  // rejected at parse, before the request can reach a worker.
  EXPECT_THROW(requestFromJson(Json::parse(
                   R"({"op":"classify","algorithm":"contour","size":64,)"
                   R"("backend":"vectorized"})")),
               Error);
}

TEST(Protocol, AdvectOverridesRoundTrip) {
  Request request;
  request.op = Op::Characterize;
  request.algorithm = core::Algorithm::ParticleAdvection;
  request.size = 64;
  request.advectSeeds = 5000;
  request.advectSteps = 250;
  request.advectMode = "pathline";
  expectRequestRoundTrip(request);
  // Unset overrides (the defaults) stay off the wire entirely.
  Request plain;
  plain.op = Op::Characterize;
  plain.algorithm = core::Algorithm::ParticleAdvection;
  plain.size = 64;
  const Json wire = toJson(plain);
  EXPECT_EQ(wire.find("advect_seeds"), nullptr);
  EXPECT_EQ(wire.find("advect_mode"), nullptr);
  // Invalid tokens are rejected at parse, before the engine sees them.
  EXPECT_THROW(
      requestFromJson(Json::parse(
          R"({"op":"characterize","algorithm":"advection","size":64,)"
          R"("advect_mode":"sideways"})")),
      Error);
  // The retired advect_schedule field is an unknown key like any other:
  // ignored, so the request keys the same cache entry as one without it.
  const Request retired = requestFromJson(Json::parse(
      R"({"op":"characterize","algorithm":"advection","size":64,)"
      R"("advect_schedule":"worksteal"})"));
  EXPECT_EQ(canonicalCacheKey(retired), canonicalCacheKey(plain));
}

TEST(Protocol, CacheKeyCoversAdvectOverrides) {
  Request a;
  a.op = Op::Characterize;
  a.algorithm = core::Algorithm::ParticleAdvection;
  a.size = 64;
  Request b = a;
  // Seeds, steps and mode change the result: the key must fork.
  b.advectSeeds = 5000;
  EXPECT_NE(canonicalCacheKey(a), canonicalCacheKey(b));
  b = a;
  b.advectSteps = 50;
  EXPECT_NE(canonicalCacheKey(a), canonicalCacheKey(b));
  b = a;
  b.advectMode = "pathline";
  EXPECT_NE(canonicalCacheKey(a), canonicalCacheKey(b));
}

TEST(Protocol, BlockOverridesRoundTrip) {
  Request request;
  request.op = Op::Characterize;
  request.algorithm = core::Algorithm::Contour;
  request.size = 64;
  request.blocks = 4;
  request.ghost = 2;
  expectRequestRoundTrip(request);

  Request study;
  study.op = Op::Study;
  study.algorithms = {core::Algorithm::Contour};
  study.sizes = {32};
  study.capsWatts = {120, 60};
  study.cycles = 2;
  study.blocks = 4;
  study.ghost = 2;
  expectRequestRoundTrip(study);

  // Unset overrides (0 = worker default) stay off the wire entirely.
  Request plain;
  plain.op = Op::Characterize;
  plain.algorithm = core::Algorithm::Contour;
  plain.size = 64;
  const Json wire = toJson(plain);
  EXPECT_EQ(wire.find("blocks"), nullptr);
  EXPECT_EQ(wire.find("ghost"), nullptr);

  // Out-of-range decompositions are rejected at parse.
  EXPECT_THROW(requestFromJson(Json::parse(
                   R"({"op":"characterize","algorithm":"contour","size":64,)"
                   R"("blocks":5000})")),
               Error);
  EXPECT_THROW(requestFromJson(Json::parse(
                   R"({"op":"characterize","algorithm":"contour","size":64,)"
                   R"("ghost":9})")),
               Error);
}

TEST(Protocol, CacheKeyCoversBlockOverrides) {
  // Outputs are bit-identical across block counts, but the *profile*
  // is not (ghost-exchange / block-stitch phases, per-block launch
  // accounting), so blocks and ghost fork the key — unlike backend.
  Request a;
  a.op = Op::Characterize;
  a.algorithm = core::Algorithm::Contour;
  a.size = 64;
  Request b = a;
  b.blocks = 4;
  EXPECT_NE(canonicalCacheKey(a), canonicalCacheKey(b));
  b = a;
  b.ghost = 2;
  EXPECT_NE(canonicalCacheKey(a), canonicalCacheKey(b));

  Request sa;
  sa.op = Op::Study;
  sa.algorithms = {core::Algorithm::Contour};
  sa.sizes = {32};
  sa.capsWatts = {120, 60};
  sa.cycles = 1;
  Request sb = sa;
  sb.blocks = 2;
  EXPECT_NE(canonicalCacheKey(sa), canonicalCacheKey(sb));
}

TEST(Protocol, MalformedRequestsThrow) {
  // No op.
  EXPECT_THROW(requestFromJson(Json::parse("{}")), Error);
  // Unknown op.
  EXPECT_THROW(requestFromJson(Json::parse(R"({"op":"frobnicate"})")), Error);
  // Unknown algorithm.
  EXPECT_THROW(requestFromJson(Json::parse(
                   R"({"op":"classify","algorithm":"nope","size":32})")),
               Error);
  // Missing size.
  EXPECT_THROW(requestFromJson(Json::parse(
                   R"({"op":"classify","algorithm":"contour"})")),
               Error);
  // Non-positive size.
  EXPECT_THROW(requestFromJson(Json::parse(
                   R"({"op":"classify","algorithm":"contour","size":0})")),
               Error);
  // Negative cap.
  EXPECT_THROW(
      requestFromJson(Json::parse(
          R"({"op":"classify","algorithm":"contour","size":32,"caps":[-5]})")),
      Error);
  // Budget without budget_watts.
  EXPECT_THROW(requestFromJson(Json::parse(
                   R"({"op":"budget","algorithm":"contour","size":32})")),
               Error);
  // Unknown backend.
  EXPECT_THROW(requestFromJson(Json::parse(
                   R"({"op":"ping","backend":"quantum"})")),
               Error);
  // Not an object at all.
  EXPECT_THROW(requestFromJson(Json::parse("[1,2,3]")), Error);
}

// Integer fields are range-checked before the cast: an out-of-range,
// fractional or non-finite number is an error naming the field and its
// range, never undefined behaviour or a silent truncation.
TEST(Protocol, IntegerFieldsRejectOutOfRangeAndFractionalValues) {
  const auto errorFor = [](const std::string& text) -> std::string {
    try {
      requestFromJson(Json::parse(text));
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  const std::string study = R"({"op":"study","algorithms":["contour"],)";
  const std::string classify =
      R"({"op":"classify","algorithm":"contour","size":32,)";
  const std::string budget =
      R"({"op":"budget","algorithm":"contour","size":32,"budget_watts":80,)";

  EXPECT_NE(errorFor(study + R"("cycles":1e10})").find(
                "cycles must be an integer in [0, 2147483647]"),
            std::string::npos);
  EXPECT_NE(errorFor(study + R"("cycles":2.5})").find("cycles"),
            std::string::npos);
  EXPECT_NE(errorFor(study + R"("cycles":-1})").find("cycles"),
            std::string::npos);
  // A budget models one profile phase per hydro step, so the step count
  // is bounded well below int.
  EXPECT_NE(errorFor(budget + R"("sim_steps":1e12})").find(
                "sim_steps must be an integer in [0, 10000]"),
            std::string::npos);
  EXPECT_NE(errorFor(budget + R"("sim_steps":10001})").find("sim_steps"),
            std::string::npos);
  // Trace and span ids must be exact in a double: [0, 2^53 - 1].
  for (const char* key : {"trace_id", "parent_span"}) {
    SCOPED_TRACE(key);
    const std::string field = std::string(R"({"op":"ping",")") + key + "\":";
    EXPECT_NE(errorFor(field + "1e30}").find(
                  std::string(key) +
                  " must be an integer in [0, 9007199254740991]"),
              std::string::npos);
    EXPECT_NE(errorFor(field + "2.5}").find(key), std::string::npos);
    EXPECT_NE(errorFor(field + "-1}").find(key), std::string::npos);
    EXPECT_NE(errorFor(field + "9007199254740992}").find(key),
              std::string::npos);
  }
  EXPECT_NE(errorFor(R"({"op":"heartbeat","seq":1e30})").find(
                "seq must be an integer in [-9223372036854775808, "
                "9223372036854775807]"),
            std::string::npos);
  EXPECT_NE(errorFor(R"({"op":"heartbeat","seq":2.5})").find("seq"),
            std::string::npos);
  EXPECT_NE(errorFor(classify + R"("advect_seeds":1e30})").find(
                "advect_seeds must be an integer in [0, 9223372036854775807]"),
            std::string::npos);
  // 2^63 is one past the int64 maximum.
  EXPECT_NE(errorFor(classify + R"("advect_steps":9223372036854775808})")
                .find("advect_steps"),
            std::string::npos);
  EXPECT_NE(errorFor(classify + R"("blocks":4097})").find(
                "blocks must be an integer in [0, 4096]"),
            std::string::npos);
  EXPECT_NE(errorFor(classify + R"("ghost":8.5})").find(
                "ghost must be an integer in [0, 8]"),
            std::string::npos);
  EXPECT_NE(errorFor(R"({"op":"events","limit":3e9})").find("limit"),
            std::string::npos);
  EXPECT_NE(errorFor(R"({"op":"classify","algorithm":"contour","size":1.5})")
                .find("size"),
            std::string::npos);
  EXPECT_NE(errorFor(study + R"("sizes":[16,1e300]})").find("sizes"),
            std::string::npos);

  // The bounds themselves are accepted, and -0 is 0.
  const Request atBounds = requestFromJson(Json::parse(
      classify + R"("blocks":4096,"ghost":8,"advect_seeds":-0})"));
  EXPECT_EQ(atBounds.blocks, 4096);
  EXPECT_EQ(atBounds.ghost, 8);
  EXPECT_EQ(atBounds.advectSeeds, 0);
  EXPECT_EQ(requestFromJson(Json::parse(study + R"("cycles":2147483647})"))
                .cycles,
            2147483647);
  EXPECT_EQ(
      requestFromJson(Json::parse(R"({"op":"events","limit":25})")).eventsLimit,
      25);
  EXPECT_EQ(requestFromJson(Json::parse(budget + R"("sim_steps":10000})"))
                .simSteps,
            10000);
  const Request traced = requestFromJson(Json::parse(
      R"({"op":"ping","trace_id":9007199254740991,"parent_span":7})"));
  EXPECT_EQ(traced.traceId, 9007199254740991ull);
  EXPECT_EQ(traced.parentSpan, 7u);
  EXPECT_EQ(
      requestFromJson(Json::parse(R"({"op":"heartbeat","seq":-5})")).seq, -5);
}

// --- Responses ------------------------------------------------------------

TEST(Protocol, OkResponseRoundTrip) {
  Response response;
  response.id = "42";
  response.op = Op::Classify;
  response.status = "ok";
  response.cached = true;
  response.elapsedMs = 3.75;
  Json result = Json::object();
  result.set("class", "opportunity");
  response.result = std::move(result);

  const Response parsed = responseFromJson(Json::parse(toJson(response).dump()));
  EXPECT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.id, "42");
  EXPECT_EQ(parsed.op, Op::Classify);
  EXPECT_TRUE(parsed.cached);
  EXPECT_DOUBLE_EQ(parsed.elapsedMs, 3.75);
  EXPECT_EQ(parsed.result.find("class")->asString(), "opportunity");
}

// The spliced envelope of an `ok` reply writes the bytes toJson(Response)
// would, for ids that need escapes, fractional and integral elapsed
// times, both cache flags, and with or without a trace.
TEST(Protocol, OkReplyEnvelopeMatchesToJson) {
  Json result = Json::object();
  result.set("ratio", 0.1);
  result.set("name", "a\"b");
  Json trace = Json::object();
  trace.set("traceEvents", Json::array());
  for (const std::string& id : {std::string(""), std::string("q\"\\"),
                               std::string("ctl\x01\x1f\n")}) {
    for (const double elapsedMs : {0.0, 12.0, 0.30000000000000004}) {
      for (const bool cached : {false, true}) {
        for (const bool traced : {false, true}) {
          Response response;
          response.id = id;
          response.op = Op::Budget;
          response.cached = cached;
          response.elapsedMs = elapsedMs;
          response.result = result;
          if (traced) response.trace = trace;
          std::string line;
          appendOkReply(line, id, Op::Budget, cached, elapsedMs, result.dump(),
                        response.trace);
          EXPECT_EQ(line, toJson(response).dump());
        }
      }
    }
  }
}

TEST(Protocol, ErrorAndOverloadedResponseRoundTrip) {
  for (const char* status : {"error", "overloaded"}) {
    Response response;
    response.id = "9";
    response.op = Op::Study;
    response.status = status;
    response.error = "something";
    const Response parsed =
        responseFromJson(Json::parse(toJson(response).dump()));
    EXPECT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status, status);
    EXPECT_EQ(parsed.error, "something");
  }
}

// --- Result payloads ------------------------------------------------------

TEST(Protocol, ProfileRoundTrip) {
  vis::KernelProfile profile;
  profile.kernel = "contour";
  profile.elements = 32768;
  vis::WorkProfile& a = profile.addPhase("mc-cells");
  a.flops = 1e6;
  a.intOps = 2e6;
  a.memOps = 3e6;
  a.bytesStreamed = 4e6;
  a.bytesReused = 5e5;
  a.irregularAccesses = 1e4;
  a.workingSetBytes = 1e5;
  a.parallelFraction = 0.95;
  a.overlap = 0.8;
  profile.addPhase("weld").flops = 7e5;

  const vis::KernelProfile parsed =
      profileFromJson(Json::parse(profileToJson(profile).dump()));
  ASSERT_EQ(parsed.phases.size(), 2u);
  EXPECT_EQ(parsed.kernel, "contour");
  EXPECT_EQ(parsed.elements, 32768);
  EXPECT_EQ(parsed.phases[0].name, "mc-cells");
  EXPECT_DOUBLE_EQ(parsed.phases[0].flops, 1e6);
  EXPECT_DOUBLE_EQ(parsed.phases[0].parallelFraction, 0.95);
  EXPECT_DOUBLE_EQ(parsed.phases[0].overlap, 0.8);
  EXPECT_DOUBLE_EQ(parsed.phases[1].flops, 7e5);
  EXPECT_DOUBLE_EQ(parsed.totalInstructions(), profile.totalInstructions());
}

TEST(Protocol, RecordRoundTrip) {
  core::ConfigRecord record;
  record.algorithm = core::Algorithm::Isovolume;
  record.size = 64;
  record.capWatts = 80;
  record.measurement.seconds = 12.5;
  record.measurement.averageWatts = 77.2;
  record.measurement.ipc = 1.31;
  record.measurement.elementsPerSecond = 2.1e7;
  record.ratios.tRatio = 1.04;
  record.ratios.pRatio = 1.5;
  record.ratios.fRatio = 1.2;

  const core::ConfigRecord parsed =
      recordFromJson(Json::parse(recordToJson(record).dump()));
  EXPECT_EQ(parsed.algorithm, core::Algorithm::Isovolume);
  EXPECT_EQ(parsed.size, 64);
  EXPECT_DOUBLE_EQ(parsed.capWatts, 80);
  EXPECT_DOUBLE_EQ(parsed.measurement.seconds, 12.5);
  EXPECT_DOUBLE_EQ(parsed.measurement.ipc, 1.31);
  EXPECT_DOUBLE_EQ(parsed.ratios.tRatio, 1.04);
  EXPECT_DOUBLE_EQ(parsed.ratios.pRatio, 1.5);
}

TEST(Protocol, ClassificationRoundTrip) {
  core::Classification c;
  c.powerOpportunity = true;
  c.kneeCapWatts = 50;
  c.drawAtTdpWatts = 88.5;
  c.slowdownAtMinCap = 1.07;
  c.ipcAtTdp = 0.42;
  const core::Classification parsed =
      classificationFromJson(Json::parse(classificationToJson(c).dump()));
  EXPECT_TRUE(parsed.powerOpportunity);
  EXPECT_DOUBLE_EQ(parsed.kneeCapWatts, 50);
  EXPECT_DOUBLE_EQ(parsed.drawAtTdpWatts, 88.5);
  EXPECT_DOUBLE_EQ(parsed.slowdownAtMinCap, 1.07);
  EXPECT_DOUBLE_EQ(parsed.ipcAtTdp, 0.42);
}

TEST(Protocol, BudgetPlanRoundTrip) {
  core::BudgetPlan plan;
  plan.simCapWatts = 90;
  plan.vizCapWatts = 50;
  plan.predictedSeconds = 30.5;
  plan.uniformSeconds = 34.0;
  plan.predictedAverageWatts = 64.8;
  plan.speedupVsUniform = 1.11;
  const core::BudgetPlan parsed =
      budgetPlanFromJson(Json::parse(budgetPlanToJson(plan).dump()));
  EXPECT_DOUBLE_EQ(parsed.simCapWatts, 90);
  EXPECT_DOUBLE_EQ(parsed.vizCapWatts, 50);
  EXPECT_DOUBLE_EQ(parsed.predictedSeconds, 30.5);
  EXPECT_DOUBLE_EQ(parsed.uniformSeconds, 34.0);
  EXPECT_DOUBLE_EQ(parsed.speedupVsUniform, 1.11);
}

// --- Cache keys -----------------------------------------------------------

TEST(Protocol, CacheKeyDistinguishesConfigs) {
  Request a;
  a.op = Op::Classify;
  a.algorithm = core::Algorithm::Contour;
  a.size = 64;
  a.capsWatts = {120, 60};
  Request b = a;
  EXPECT_EQ(canonicalCacheKey(a), canonicalCacheKey(b));
  b.size = 128;
  EXPECT_NE(canonicalCacheKey(a), canonicalCacheKey(b));
  b = a;
  b.capsWatts = {120, 40};
  EXPECT_NE(canonicalCacheKey(a), canonicalCacheKey(b));
  b = a;
  b.op = Op::Characterize;
  EXPECT_NE(canonicalCacheKey(a), canonicalCacheKey(b));
}

TEST(Protocol, CacheKeyIgnoresId) {
  Request a;
  a.op = Op::Characterize;
  a.algorithm = core::Algorithm::Slice;
  a.size = 32;
  Request b = a;
  a.id = "1";
  b.id = "2";
  EXPECT_EQ(canonicalCacheKey(a), canonicalCacheKey(b));
}

TEST(Protocol, UncacheableOpsHaveEmptyKey) {
  Request ping;
  ping.op = Op::Ping;
  EXPECT_TRUE(canonicalCacheKey(ping).empty());
  Request stats;
  stats.op = Op::Stats;
  EXPECT_TRUE(canonicalCacheKey(stats).empty());
}

}  // namespace
}  // namespace pviz::service
