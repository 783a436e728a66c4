// Unit coverage for the HTTP front's building blocks, independent of any
// socket: the Status -> HTTP status mapping and JSON error envelope
// (http/http_envelope.h), the strict JSON reader/writer (http/http_json.h)
// including the bit-identical double round trip the parity test relies on,
// the incremental request parser's limits and keep-alive semantics
// (http/http_parser.h), and the router's 404/405 envelopes (http/router.h).
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "http/http_envelope.h"
#include "http/http_json.h"
#include "http/http_parser.h"
#include "http/router.h"

namespace longtail {
namespace {

// ---------------------------------------------------------------- envelope

TEST(StatusToHttpTest, MappingTable) {
  EXPECT_EQ(StatusToHttp(StatusCode::kOk), 200);
  EXPECT_EQ(StatusToHttp(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(StatusToHttp(StatusCode::kOutOfRange), 400);
  EXPECT_EQ(StatusToHttp(StatusCode::kNotFound), 404);
  EXPECT_EQ(StatusToHttp(StatusCode::kResourceExhausted), 429);
  EXPECT_EQ(StatusToHttp(StatusCode::kInternal), 500);
  EXPECT_EQ(StatusToHttp(StatusCode::kIOError), 500);
  EXPECT_EQ(StatusToHttp(StatusCode::kUnimplemented), 501);
  EXPECT_EQ(StatusToHttp(StatusCode::kFailedPrecondition), 503);
  EXPECT_EQ(StatusToHttp(StatusCode::kDeadlineExceeded), 504);
}

TEST(ErrorEnvelopeTest, ShapeAndContent) {
  const HttpResponse response =
      ErrorResponse(Status::ResourceExhausted("queue full"));
  EXPECT_EQ(response.status, 429);
  EXPECT_EQ(response.content_type, "application/json");

  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* error = parsed.value().Find("error");
  ASSERT_NE(error, nullptr);
  ASSERT_NE(error->Find("code"), nullptr);
  EXPECT_EQ(error->Find("code")->string_value(), "ResourceExhausted");
  ASSERT_NE(error->Find("http_status"), nullptr);
  EXPECT_EQ(error->Find("http_status")->number_value(), 429.0);
  ASSERT_NE(error->Find("message"), nullptr);
  EXPECT_EQ(error->Find("message")->string_value(), "queue full");
}

TEST(ErrorEnvelopeTest, ParserOverrideKeepsStatusCodeName) {
  // Parser-level statuses (413/414/431/505) carry a Status whose code
  // wouldn't map there on its own; the envelope reports the wire status.
  const HttpResponse response = ErrorResponseWithHttpStatus(
      431, Status::InvalidArgument("too many headers"));
  EXPECT_EQ(response.status, 431);
  auto parsed = ParseJson(response.body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* error = parsed.value().Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("http_status")->number_value(), 431.0);
  EXPECT_EQ(error->Find("code")->string_value(), "InvalidArgument");
}

// -------------------------------------------------------------------- json

TEST(JsonTest, ParsesScalarsAndStructure) {
  auto doc = ParseJson(
      R"({"a": 1, "b": -2.5e3, "c": "hi\u00e9", "d": [true, false, null],)"
      R"( "e": {"nested": "x"}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue& root = doc.value();
  EXPECT_EQ(root.Find("a")->number_value(), 1.0);
  EXPECT_EQ(root.Find("b")->number_value(), -2500.0);
  EXPECT_EQ(root.Find("c")->string_value(), "hi\xc3\xa9");
  ASSERT_TRUE(root.Find("d")->is_array());
  EXPECT_EQ(root.Find("d")->items().size(), 3u);
  EXPECT_TRUE(root.Find("d")->items()[2].is_null());
  EXPECT_EQ(root.Find("e")->Find("nested")->string_value(), "x");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",             // empty
      "{",            // unterminated object
      "[1,]",         // trailing comma
      "{\"a\" 1}",    // missing colon
      "\"unterminated", // unterminated string
      "01",           // leading zero
      "1.",           // bare decimal point
      "+1",           // explicit plus
      "nul",          // truncated keyword
      "{} extra",     // trailing content
      "\"\\ud800\"",  // lone surrogate
      "\"\x01\"",     // bare control character
      "{\"a\": 1} {\"b\": 2}",  // two documents
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseJson(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonTest, DepthCapFailsCleanlyNotByStackOverflow) {
  std::string deep(100000, '[');
  auto result = ParseJson(deep);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("deep"), std::string::npos);
}

TEST(JsonTest, WriterEscapesAndStaysParseable) {
  JsonValue root = JsonValue::Object();
  root.Set("s", JsonValue::String("a\"b\\c\nd\te\x01f"));
  const std::string text = WriteJson(root);
  auto reparsed = ParseJson(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  EXPECT_EQ(reparsed.value().Find("s")->string_value(), "a\"b\\c\nd\te\x01f");
}

TEST(JsonTest, DoublesRoundTripBitIdentical) {
  // The property the HTTP parity test builds on: a score serialized into a
  // response body parses back to the bit-identical double.
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          1.0 / 3.0,
                          0.1,
                          1e-300,
                          1.7976931348623157e308,
                          5e-324,
                          123456789.123456789,
                          -0.000123456,
                          static_cast<double>(1ull << 53)};
  for (const double value : cases) {
    JsonValue root = JsonValue::Object();
    root.Set("v", JsonValue::Number(value));
    auto reparsed = ParseJson(WriteJson(root));
    ASSERT_TRUE(reparsed.ok());
    const double back = reparsed.value().Find("v")->number_value();
    EXPECT_EQ(std::memcmp(&back, &value, sizeof(double)), 0)
        << "value " << value << " serialized as " << WriteJson(root);
  }
}

TEST(JsonTest, IntegralDoublesPrintAsIntegers) {
  JsonValue root = JsonValue::Object();
  root.Set("k", JsonValue::Number(42.0));
  EXPECT_EQ(WriteJson(root), "{\"k\":42}");
  JsonValue negative_zero = JsonValue::Object();
  negative_zero.Set("k", JsonValue::Number(-0.0));
  EXPECT_EQ(WriteJson(negative_zero), "{\"k\":-0}");
}

TEST(JsonTest, AsInt64ChecksIntegralityAndRange) {
  EXPECT_TRUE(JsonValue::Number(7).AsInt64(0, 10).ok());
  EXPECT_EQ(JsonValue::Number(7).AsInt64(0, 10).value(), 7);
  EXPECT_FALSE(JsonValue::Number(7.5).AsInt64(0, 10).ok());
  EXPECT_FALSE(JsonValue::Number(11).AsInt64(0, 10).ok());
  EXPECT_FALSE(JsonValue::Number(-1).AsInt64(0, 10).ok());
  EXPECT_FALSE(JsonValue::String("7").AsInt64(0, 10).ok());
}

// ------------------------------------------------------------------ parser

HttpRequestParser::ParseResult Feed(HttpRequestParser& parser,
                                    std::string_view wire,
                                    size_t* consumed = nullptr) {
  size_t used = 0;
  const auto result = parser.Consume(wire, &used);
  if (consumed != nullptr) *consumed = used;
  return result;
}

TEST(HttpParserTest, ParsesPostWithBody) {
  HttpRequestParser parser;
  const std::string wire =
      "POST /v1/score?x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "{\"user\": 3}";
  ASSERT_EQ(Feed(parser, wire), HttpRequestParser::ParseResult::kComplete);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/score?x=1");
  EXPECT_EQ(request.path(), "/v1/score");
  EXPECT_EQ(request.body, "{\"user\": 3}");
  ASSERT_NE(request.FindHeader("content-type"), nullptr);
  EXPECT_EQ(*request.FindHeader("content-type"), "application/json");
  EXPECT_TRUE(request.keep_alive);
}

TEST(HttpParserTest, KeepAliveDefaultsByVersion) {
  {
    HttpRequestParser parser;
    ASSERT_EQ(Feed(parser, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
              HttpRequestParser::ParseResult::kComplete);
    EXPECT_FALSE(parser.request().keep_alive);
  }
  {
    HttpRequestParser parser;
    ASSERT_EQ(Feed(parser, "GET / HTTP/1.0\r\n\r\n"),
              HttpRequestParser::ParseResult::kComplete);
    EXPECT_FALSE(parser.request().keep_alive);
  }
  {
    HttpRequestParser parser;
    ASSERT_EQ(
        Feed(parser, "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
        HttpRequestParser::ParseResult::kComplete);
    EXPECT_TRUE(parser.request().keep_alive);
  }
}

TEST(HttpParserTest, LimitStatuses) {
  {  // 414: request line too long.
    HttpParserLimits limits;
    limits.max_request_line_bytes = 32;
    HttpRequestParser parser(limits);
    const std::string wire =
        "GET /" + std::string(100, 'a') + " HTTP/1.1\r\n\r\n";
    ASSERT_EQ(Feed(parser, wire), HttpRequestParser::ParseResult::kError);
    EXPECT_EQ(parser.error_http_status(), 414);
  }
  {  // 431: header section too large.
    HttpParserLimits limits;
    limits.max_header_bytes = 64;
    HttpRequestParser parser(limits);
    const std::string wire = "GET / HTTP/1.1\r\nX-Big: " +
                             std::string(200, 'b') + "\r\n\r\n";
    ASSERT_EQ(Feed(parser, wire), HttpRequestParser::ParseResult::kError);
    EXPECT_EQ(parser.error_http_status(), 431);
  }
  {  // 431: too many headers.
    HttpParserLimits limits;
    limits.max_headers = 2;
    HttpRequestParser parser(limits);
    const std::string wire =
        "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n";
    ASSERT_EQ(Feed(parser, wire), HttpRequestParser::ParseResult::kError);
    EXPECT_EQ(parser.error_http_status(), 431);
  }
  {  // 413: declared body over the cap.
    HttpParserLimits limits;
    limits.max_body_bytes = 16;
    HttpRequestParser parser(limits);
    const std::string wire =
        "POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
    ASSERT_EQ(Feed(parser, wire), HttpRequestParser::ParseResult::kError);
    EXPECT_EQ(parser.error_http_status(), 413);
  }
  {  // 501: Transfer-Encoding is not implemented.
    HttpRequestParser parser;
    ASSERT_EQ(Feed(parser,
                   "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
              HttpRequestParser::ParseResult::kError);
    EXPECT_EQ(parser.error_http_status(), 501);
  }
  {  // 505: unsupported HTTP version.
    HttpRequestParser parser;
    ASSERT_EQ(Feed(parser, "GET / HTTP/2.0\r\n\r\n"),
              HttpRequestParser::ParseResult::kError);
    EXPECT_EQ(parser.error_http_status(), 505);
  }
}

TEST(HttpParserTest, PipelinedRequestsLeaveTrailingBytesUnclaimed) {
  HttpRequestParser parser;
  const std::string first = "GET /healthz HTTP/1.1\r\n\r\n";
  const std::string second = "GET /metrics HTTP/1.1\r\n\r\n";
  size_t consumed = 0;
  ASSERT_EQ(Feed(parser, first + second, &consumed),
            HttpRequestParser::ParseResult::kComplete);
  EXPECT_EQ(consumed, first.size());
  EXPECT_EQ(parser.request().target, "/healthz");

  parser.Reset();
  ASSERT_EQ(Feed(parser, second, &consumed),
            HttpRequestParser::ParseResult::kComplete);
  EXPECT_EQ(consumed, second.size());
  EXPECT_EQ(parser.request().target, "/metrics");
}

TEST(HttpParserTest, SplitAcrossArbitraryBoundaries) {
  const std::string wire =
      "POST /v1/recommend HTTP/1.1\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello";
  for (size_t split = 0; split <= wire.size(); ++split) {
    HttpRequestParser parser;
    const auto first =
        Feed(parser, std::string_view(wire).substr(0, split));
    if (split < wire.size()) {
      ASSERT_EQ(first, HttpRequestParser::ParseResult::kNeedMore)
          << "split at " << split;
      ASSERT_EQ(Feed(parser, std::string_view(wire).substr(split)),
                HttpRequestParser::ParseResult::kComplete)
          << "split at " << split;
    } else {
      ASSERT_EQ(first, HttpRequestParser::ParseResult::kComplete);
    }
    EXPECT_EQ(parser.request().body, "hello") << "split at " << split;
  }
}

TEST(HttpParserTest, HostileContentLengthValues) {
  const char* bad[] = {
      "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length:\r\n\r\n",
  };
  for (const char* wire : bad) {
    HttpRequestParser parser;
    ASSERT_EQ(Feed(parser, wire), HttpRequestParser::ParseResult::kError)
        << wire;
    EXPECT_EQ(parser.error_http_status(), 400) << wire;
  }
}

TEST(HttpResponseTest, SerializationRoundTrip) {
  HttpResponse response;
  response.status = 200;
  response.body = "{\"ok\":true}";
  const std::string wire = SerializeHttpResponse(response, true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"ok\":true}"), std::string::npos);
  const std::string closing = SerializeHttpResponse(response, false);
  EXPECT_NE(closing.find("Connection: close\r\n"), std::string::npos);
}

// ------------------------------------------------------------------ router

TEST(RouterTest, DispatchesAndAnswersTypedEnvelopes) {
  Router router;
  router.Handle("GET", "/ping", [](const RequestContext&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });

  HttpRequestParser parser;
  ASSERT_EQ(Feed(parser, "GET /ping?q=1 HTTP/1.1\r\n\r\n"),
            HttpRequestParser::ParseResult::kComplete);
  const RequestContext ok{parser.request(), "t", false};
  EXPECT_EQ(router.Dispatch(ok).body, "pong");

  HttpRequestParser missing;
  ASSERT_EQ(Feed(missing, "GET /nope HTTP/1.1\r\n\r\n"),
            HttpRequestParser::ParseResult::kComplete);
  const HttpResponse not_found =
      router.Dispatch({missing.request(), "t", false});
  EXPECT_EQ(not_found.status, 404);
  auto not_found_body = ParseJson(not_found.body);
  ASSERT_TRUE(not_found_body.ok());
  EXPECT_EQ(not_found_body.value().Find("error")->Find("code")->string_value(),
            "NotFound");

  HttpRequestParser wrong_method;
  ASSERT_EQ(Feed(wrong_method, "POST /ping HTTP/1.1\r\n\r\n"),
            HttpRequestParser::ParseResult::kComplete);
  const HttpResponse not_allowed =
      router.Dispatch({wrong_method.request(), "t", false});
  EXPECT_EQ(not_allowed.status, 405);
  bool saw_allow = false;
  for (const auto& [name, value] : not_allowed.extra_headers) {
    if (name == "Allow") {
      saw_allow = true;
      EXPECT_EQ(value, "GET");
    }
  }
  EXPECT_TRUE(saw_allow);
}

}  // namespace
}  // namespace longtail
