#include "tmwia/obs/flight_recorder.hpp"

#include <array>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "tmwia/support/json.hpp"

namespace tmwia::obs {
namespace {

constexpr char kBinaryMagic[8] = {'T', 'M', 'W', 'I', 'A', 'F', 'R', '1'};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

struct KindName {
  RecorderEvent::Kind kind;
  const char* name;
};

constexpr std::array<KindName, 18> kKindNames{{
    {RecorderEvent::Kind::kRunBegin, "run_begin"},
    {RecorderEvent::Kind::kRunEnd, "run_end"},
    {RecorderEvent::Kind::kPhaseBegin, "phase_begin"},
    {RecorderEvent::Kind::kPhaseEnd, "phase_end"},
    {RecorderEvent::Kind::kPhaseSummary, "phase_summary"},
    {RecorderEvent::Kind::kRoundBegin, "round_begin"},
    {RecorderEvent::Kind::kRoundEnd, "round_end"},
    {RecorderEvent::Kind::kProbe, "probe"},
    {RecorderEvent::Kind::kProbeFailed, "probe_failed"},
    {RecorderEvent::Kind::kPost, "post"},
    {RecorderEvent::Kind::kVectorPost, "vector_post"},
    {RecorderEvent::Kind::kCrash, "crash"},
    {RecorderEvent::Kind::kRecover, "recover"},
    {RecorderEvent::Kind::kPostDropped, "post_dropped"},
    {RecorderEvent::Kind::kPostDelayed, "post_delayed"},
    {RecorderEvent::Kind::kDegraded, "degraded"},
    {RecorderEvent::Kind::kOverflow, "overflow"},
    {RecorderEvent::Kind::kNote, "note"},
}};

}  // namespace

const char* to_string(RecorderEvent::Kind kind) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

std::optional<RecorderEvent::Kind> kind_from_string(std::string_view name) {
  for (const auto& kn : kKindNames) {
    if (name == kn.name) return kn.kind;
  }
  return std::nullopt;
}

std::optional<RecordFormat> parse_record_format(std::string_view name) {
  if (name == "jsonl") return RecordFormat::kJsonl;
  if (name == "binary") return RecordFormat::kBinary;
  return std::nullopt;
}

FlightRecorder::FlightRecorder(std::ostream& out, RecordFormat format, std::size_t stage_cap)
    : out_(out), format_(format), stage_cap_(stage_cap) {
  if (format_ == RecordFormat::kBinary) {
    out_.write(kBinaryMagic, sizeof kBinaryMagic);
  }
}

FlightRecorder::~FlightRecorder() { flush(); }

void FlightRecorder::write_locked(RecorderEvent& ev) {
  ev.t = clock_++;
  written_.fetch_add(1, std::memory_order_relaxed);
  std::string line;
  line.reserve(96);
  if (format_ == RecordFormat::kJsonl) {
    line += "{\"t\":";
    line += std::to_string(ev.t);
    line += ",\"ev\":\"";
    line += to_string(ev.kind);
    line.push_back('"');
    if (ev.has(RecorderEvent::kHasRound)) {
      line += ",\"round\":";
      line += std::to_string(ev.round);
    }
    if (ev.has(RecorderEvent::kHasPlayer)) {
      line += ",\"p\":";
      line += std::to_string(ev.player);
    }
    if (ev.has(RecorderEvent::kHasObject)) {
      line += ",\"o\":";
      line += std::to_string(ev.object);
    }
    if (ev.has(RecorderEvent::kHasA)) {
      line += ",\"a\":";
      line += std::to_string(ev.a);
    }
    if (ev.has(RecorderEvent::kHasB)) {
      line += ",\"b\":";
      line += std::to_string(ev.b);
    }
    if (ev.has(RecorderEvent::kHasX)) {
      line += ",\"x\":";
      support::append_json_f64(line, ev.x);
    }
    if (ev.has(RecorderEvent::kHasY)) {
      line += ",\"y\":";
      support::append_json_f64(line, ev.y);
    }
    if (ev.has(RecorderEvent::kHasLabel)) {
      line += ",\"label\":";
      support::append_json_string(line, ev.label);
    }
    line += "}\n";
  } else {
    line.push_back(static_cast<char>(ev.kind));
    line.push_back(static_cast<char>(ev.mask));
    put_u64(line, ev.t);
    if (ev.has(RecorderEvent::kHasRound)) put_u64(line, ev.round);
    if (ev.has(RecorderEvent::kHasPlayer)) put_u32(line, ev.player);
    if (ev.has(RecorderEvent::kHasObject)) put_u32(line, ev.object);
    if (ev.has(RecorderEvent::kHasA)) put_u64(line, ev.a);
    if (ev.has(RecorderEvent::kHasB)) put_u64(line, ev.b);
    if (ev.has(RecorderEvent::kHasX)) put_f64(line, ev.x);
    if (ev.has(RecorderEvent::kHasY)) put_f64(line, ev.y);
    if (ev.has(RecorderEvent::kHasLabel)) {
      put_u32(line, static_cast<std::uint32_t>(ev.label.size()));
      line += ev.label;
    }
  }
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
}

void FlightRecorder::drain_locked() {
  for (std::size_t p = 0; p < stages_.size(); ++p) {
    Stage& st = stages_[p];
    for (Staged& s : st.events) {
      RecorderEvent ev;
      ev.kind = s.kind;
      ev.player = static_cast<std::uint32_t>(p);
      ev.mask = RecorderEvent::kHasPlayer;
      switch (s.kind) {
        case RecorderEvent::Kind::kProbe:
          ev.object = s.object;
          ev.a = s.a;
          ev.b = s.b;
          ev.mask |= RecorderEvent::kHasObject | RecorderEvent::kHasA | RecorderEvent::kHasB;
          break;
        case RecorderEvent::Kind::kProbeFailed:
          ev.object = s.object;
          ev.b = s.b;
          ev.mask |= RecorderEvent::kHasObject | RecorderEvent::kHasB;
          break;
        case RecorderEvent::Kind::kVectorPost:
          ev.a = s.a;
          ev.b = s.b;
          ev.label = std::move(s.label);
          ev.mask |= RecorderEvent::kHasA | RecorderEvent::kHasB | RecorderEvent::kHasLabel;
          break;
        default:  // kCrash / kDegraded carry only the player
          break;
      }
      write_locked(ev);
    }
    st.events.clear();
    if (st.dropped != 0) {
      RecorderEvent ev;
      ev.kind = RecorderEvent::Kind::kOverflow;
      ev.player = static_cast<std::uint32_t>(p);
      ev.a = st.dropped;
      ev.mask = RecorderEvent::kHasPlayer | RecorderEvent::kHasA;
      write_locked(ev);
      st.dropped = 0;
    }
  }
}

void FlightRecorder::emit_serial(RecorderEvent ev) {
  support::MutexLock lk(mu_);
  drain_locked();
  write_locked(ev);
}

void FlightRecorder::run_begin(std::string_view label, double alpha, std::size_t players,
                               std::size_t objects, std::uint64_t d) {
  support::MutexLock lk(mu_);
  drain_locked();
  RecorderEvent ev;
  ev.label = std::string(label);
  ev.x = alpha;
  if (depth_++ == 0) {
    if (stages_.size() < players) stages_.resize(players);
    ev.kind = RecorderEvent::Kind::kRunBegin;
    ev.a = players;
    ev.b = objects;
    ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasX | RecorderEvent::kHasA |
              RecorderEvent::kHasB;
  } else {
    ev.kind = RecorderEvent::Kind::kPhaseBegin;
    ev.a = d;
    ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasX | RecorderEvent::kHasA;
  }
  write_locked(ev);
}

void FlightRecorder::run_end(std::string_view label, std::uint64_t rounds, std::uint64_t probes) {
  support::MutexLock lk(mu_);
  drain_locked();
  RecorderEvent ev;
  ev.label = std::string(label);
  ev.a = rounds;
  ev.b = probes;
  ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasA | RecorderEvent::kHasB;
  if (depth_ > 0) --depth_;
  ev.kind = depth_ == 0 ? RecorderEvent::Kind::kRunEnd : RecorderEvent::Kind::kPhaseEnd;
  write_locked(ev);
}

FlightRecorder::PhaseEval FlightRecorder::phase_summary(
    std::string_view label, const std::vector<bits::BitVector>& outputs,
    std::uint64_t cum_rounds, std::uint64_t cum_probes) {
  PhaseEval eval;
  if (evaluator_) eval = evaluator_(outputs);
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kPhaseSummary;
  ev.label = std::string(label);
  ev.player = static_cast<std::uint32_t>(outputs.size());
  ev.a = cum_rounds;
  ev.b = cum_probes;
  ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasPlayer | RecorderEvent::kHasA |
            RecorderEvent::kHasB;
  if (eval.max_disc >= 0.0) {
    ev.x = eval.max_disc;
    ev.y = eval.mean_disc;
    ev.mask |= RecorderEvent::kHasX | RecorderEvent::kHasY;
  }
  emit_serial(std::move(ev));
  return eval;
}

void FlightRecorder::round_begin(std::uint64_t round) {
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kRoundBegin;
  ev.round = round;
  ev.mask = RecorderEvent::kHasRound;
  emit_serial(std::move(ev));
}

void FlightRecorder::round_end(std::uint64_t round, std::uint64_t active_players,
                               std::uint64_t posts) {
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kRoundEnd;
  ev.round = round;
  ev.a = active_players;
  ev.b = posts;
  ev.mask = RecorderEvent::kHasRound | RecorderEvent::kHasA | RecorderEvent::kHasB;
  emit_serial(std::move(ev));
}

void FlightRecorder::post(std::uint64_t round, std::uint32_t player, std::uint32_t object) {
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kPost;
  ev.round = round;
  ev.player = player;
  ev.object = object;
  ev.mask = RecorderEvent::kHasRound | RecorderEvent::kHasPlayer | RecorderEvent::kHasObject;
  emit_serial(std::move(ev));
}

void FlightRecorder::fault(RecorderEvent::Kind kind, std::uint64_t round, std::uint32_t player,
                           std::uint64_t a) {
  RecorderEvent ev;
  ev.kind = kind;
  ev.round = round;
  ev.player = player;
  ev.mask = RecorderEvent::kHasRound | RecorderEvent::kHasPlayer;
  if (kind == RecorderEvent::Kind::kPostDelayed) {
    ev.a = a;
    ev.mask |= RecorderEvent::kHasA;
  }
  emit_serial(std::move(ev));
}

void FlightRecorder::note(std::string_view label, std::uint64_t a, std::uint64_t b) {
  RecorderEvent ev;
  ev.kind = RecorderEvent::Kind::kNote;
  ev.label = std::string(label);
  ev.a = a;
  ev.b = b;
  ev.mask = RecorderEvent::kHasLabel | RecorderEvent::kHasA | RecorderEvent::kHasB;
  emit_serial(std::move(ev));
}

void FlightRecorder::stage(std::uint32_t player, Staged ev) {
  if (player >= stages_.size()) {
    // Probe traffic before the first run_begin (or beyond the declared
    // player count): counted, not recorded.
    unstaged_dropped_.fetch_add(1, std::memory_order_relaxed);
    dropped_total_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Stage& st = stages_[player];
  if (st.events.size() >= stage_cap_) {
    ++st.dropped;
    dropped_total_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  st.events.push_back(std::move(ev));
}

void FlightRecorder::probe(std::uint32_t player, std::uint32_t object, bool value,
                           std::uint64_t invocation) {
  Staged s;
  s.kind = RecorderEvent::Kind::kProbe;
  s.object = object;
  s.a = value ? 1 : 0;
  s.b = invocation;
  stage(player, std::move(s));
}

void FlightRecorder::probe_failed(std::uint32_t player, std::uint32_t object,
                                  std::uint64_t invocation) {
  Staged s;
  s.kind = RecorderEvent::Kind::kProbeFailed;
  s.object = object;
  s.b = invocation;
  stage(player, std::move(s));
}

void FlightRecorder::crashed(std::uint32_t player) {
  Staged s;
  s.kind = RecorderEvent::Kind::kCrash;
  stage(player, std::move(s));
}

void FlightRecorder::degraded(std::uint32_t player) {
  Staged s;
  s.kind = RecorderEvent::Kind::kDegraded;
  stage(player, std::move(s));
}

void FlightRecorder::vector_post(std::uint32_t player, std::string_view channel,
                                 std::uint64_t vec_hash, std::uint64_t vec_bits) {
  Staged s;
  s.kind = RecorderEvent::Kind::kVectorPost;
  s.a = vec_hash;
  s.b = vec_bits;
  s.label = std::string(channel);
  stage(player, std::move(s));
}

void FlightRecorder::flush() {
  support::MutexLock lk(mu_);
  drain_locked();
  const auto unstaged = unstaged_dropped_.exchange(0, std::memory_order_relaxed);
  if (unstaged != 0) {
    RecorderEvent ev;
    ev.kind = RecorderEvent::Kind::kOverflow;
    ev.a = unstaged;
    ev.mask = RecorderEvent::kHasA;
    write_locked(ev);
  }
  out_.flush();
}

std::uint64_t FlightRecorder::clock() {
  support::MutexLock lk(mu_);
  return clock_;
}

void FlightRecorder::resume_run(std::size_t players, std::uint64_t clock) {
  support::MutexLock lk(mu_);
  clock_ = clock;
  depth_ = 1;  // re-open the checkpointed run scope silently
  if (stages_.size() < players) stages_.resize(players);
}

// ---------------------------------------------------------------------------
// RecordSink

namespace {

std::unique_ptr<std::ostream> open_log(const std::string& path, RecordFormat format) {
  // tmwia-lint: allow(durable-write) streaming event sink, not a one-shot artifact
  auto out = std::make_unique<std::ofstream>(
      path, format == RecordFormat::kBinary ? std::ios::out | std::ios::binary : std::ios::out);
  if (!*out) throw std::runtime_error("cannot open record sink '" + path + "'");
  return out;
}

}  // namespace

RecordSink::RecordSink(const std::string& path, RecordFormat format)
    : out_(open_log(path, format)), recorder_(*out_, format) {}

RecordSink::~RecordSink() = default;

// ---------------------------------------------------------------------------
// Reader

namespace {

class LineParser {
 public:
  explicit LineParser(std::string_view line, std::size_t lineno)
      : s_(line), lineno_(lineno) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("recorder log line " + std::to_string(lineno_) + ": " + what);
  }

  void expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("truncated escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            out.push_back(static_cast<char>(v & 0x7f));
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
    expect('"');
    return out;
  }

  std::string_view parse_number_token() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}') ++pos_;
    if (pos_ == start) fail("empty value");
    return s_.substr(start, pos_ - start);
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t lineno_;
};

RecorderEvent parse_jsonl_line(std::string_view line, std::size_t lineno) {
  LineParser p(line, lineno);
  RecorderEvent ev;
  p.expect('{');
  bool first = true;
  while (!p.peek('}')) {
    if (!first) p.expect(',');
    first = false;
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "ev" || key == "label") {
      const std::string val = p.parse_string();
      if (key == "ev") {
        const auto k = kind_from_string(val);
        if (!k) p.fail("unknown event kind '" + val + "'");
        ev.kind = *k;
      } else {
        ev.label = val;
        ev.mask |= RecorderEvent::kHasLabel;
      }
      continue;
    }
    const std::string_view tok = p.parse_number_token();
    const std::string tmp(tok);
    if (key == "x" || key == "y") {
      const double v = std::strtod(tmp.c_str(), nullptr);
      if (key == "x") {
        ev.x = v;
        ev.mask |= RecorderEvent::kHasX;
      } else {
        ev.y = v;
        ev.mask |= RecorderEvent::kHasY;
      }
      continue;
    }
    const std::uint64_t v = std::strtoull(tmp.c_str(), nullptr, 10);
    if (key == "t") {
      ev.t = v;
    } else if (key == "round") {
      ev.round = v;
      ev.mask |= RecorderEvent::kHasRound;
    } else if (key == "p") {
      ev.player = static_cast<std::uint32_t>(v);
      ev.mask |= RecorderEvent::kHasPlayer;
    } else if (key == "o") {
      ev.object = static_cast<std::uint32_t>(v);
      ev.mask |= RecorderEvent::kHasObject;
    } else if (key == "a") {
      ev.a = v;
      ev.mask |= RecorderEvent::kHasA;
    } else if (key == "b") {
      ev.b = v;
      ev.mask |= RecorderEvent::kHasB;
    } else {
      p.fail("unknown key '" + key + "'");
    }
  }
  p.expect('}');
  return ev;
}

std::uint64_t get_u64(std::istream& in) {
  unsigned char buf[8];
  in.read(reinterpret_cast<char*>(buf), 8);
  if (!in) throw std::runtime_error("recorder log: truncated binary record");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

std::uint32_t get_u32(std::istream& in) {
  unsigned char buf[4];
  in.read(reinterpret_cast<char*>(buf), 4);
  if (!in) throw std::runtime_error("recorder log: truncated binary record");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

double get_f64(std::istream& in) {
  const std::uint64_t bits = get_u64(in);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

RecorderLog read_binary(std::istream& in) {
  RecorderLog log;
  log.format = RecordFormat::kBinary;
  for (;;) {
    const int kind_byte = in.get();
    if (kind_byte == std::char_traits<char>::eof()) break;
    const int mask_byte = in.get();
    if (mask_byte == std::char_traits<char>::eof()) {
      throw std::runtime_error("recorder log: truncated binary record");
    }
    RecorderEvent ev;
    ev.kind = static_cast<RecorderEvent::Kind>(kind_byte);
    if (std::string_view(to_string(ev.kind)) == "unknown") {
      throw std::runtime_error("recorder log: unknown binary event kind " +
                               std::to_string(kind_byte));
    }
    ev.mask = static_cast<std::uint8_t>(mask_byte);
    ev.t = get_u64(in);
    if (ev.has(RecorderEvent::kHasRound)) ev.round = get_u64(in);
    if (ev.has(RecorderEvent::kHasPlayer)) ev.player = get_u32(in);
    if (ev.has(RecorderEvent::kHasObject)) ev.object = get_u32(in);
    if (ev.has(RecorderEvent::kHasA)) ev.a = get_u64(in);
    if (ev.has(RecorderEvent::kHasB)) ev.b = get_u64(in);
    if (ev.has(RecorderEvent::kHasX)) ev.x = get_f64(in);
    if (ev.has(RecorderEvent::kHasY)) ev.y = get_f64(in);
    if (ev.has(RecorderEvent::kHasLabel)) {
      const std::uint32_t len = get_u32(in);
      if (len > (std::uint32_t{1} << 20)) {
        throw std::runtime_error("recorder log: implausible label length");
      }
      ev.label.resize(len);
      in.read(ev.label.data(), static_cast<std::streamsize>(len));
      if (!in) throw std::runtime_error("recorder log: truncated label");
    }
    log.events.push_back(std::move(ev));
  }
  return log;
}

}  // namespace

RecorderLog read_recorder_log(std::istream& in) {
  char magic[sizeof kBinaryMagic];
  in.read(magic, sizeof magic);
  const auto got = in.gcount();
  if (got == static_cast<std::streamsize>(sizeof magic) &&
      std::memcmp(magic, kBinaryMagic, sizeof magic) == 0) {
    return read_binary(in);
  }
  // Not binary: rewind and parse as JSONL.
  in.clear();
  in.seekg(0);
  RecorderLog log;
  log.format = RecordFormat::kJsonl;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    log.events.push_back(parse_jsonl_line(line, lineno));
  }
  return log;
}

}  // namespace tmwia::obs
