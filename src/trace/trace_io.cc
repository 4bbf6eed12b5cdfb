#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace mnm
{

namespace
{

constexpr char trace_magic[8] = {'M', 'N', 'M', 'T', 'R', 'C', '0', '1'};
constexpr std::size_t name_field = 64;

/** On-disk record layout (packed little-endian, 24 bytes). */
struct RawRecord
{
    std::uint64_t pc;
    std::uint64_t mem_addr;
    std::uint16_t dep1;
    std::uint16_t dep2;
    std::uint8_t cls;
    std::uint8_t exec_latency;
    std::uint8_t mispredicted;
    std::uint8_t pad;
};
static_assert(sizeof(RawRecord) == 24, "trace record must be 24 bytes");

} // anonymous namespace

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &workload_name)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    char name_buf[name_field] = {};
    std::strncpy(name_buf, workload_name.c_str(), name_field - 1);
    if (std::fwrite(trace_magic, sizeof(trace_magic), 1, file_) != 1 ||
        std::fwrite(name_buf, name_field, 1, file_) != 1) {
        fatal("failed writing trace header to '%s'", path.c_str());
    }
}

TraceWriter::~TraceWriter()
{
    std::fclose(file_);
}

void
TraceWriter::append(const Instruction &inst)
{
    RawRecord raw;
    raw.pc = inst.pc;
    raw.mem_addr = inst.mem_addr;
    raw.dep1 = inst.dep1;
    raw.dep2 = inst.dep2;
    raw.cls = static_cast<std::uint8_t>(inst.cls);
    raw.exec_latency = inst.exec_latency;
    raw.mispredicted = inst.mispredicted ? 1 : 0;
    raw.pad = 0;
    if (std::fwrite(&raw, sizeof(raw), 1, file_) != 1)
        fatal("short write while appending trace record");
    ++written_;
}

void
TraceWriter::capture(WorkloadGenerator &gen, std::uint64_t count)
{
    Instruction inst;
    for (std::uint64_t i = 0; i < count; ++i) {
        gen.next(inst);
        append(inst);
    }
}

TraceReader::TraceReader(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        fatal("cannot open trace file '%s'", path.c_str());
    char magic[sizeof(trace_magic)];
    char name_buf[name_field];
    if (std::fread(magic, sizeof(magic), 1, file) != 1 ||
        std::memcmp(magic, trace_magic, sizeof(magic)) != 0) {
        std::fclose(file);
        fatal("'%s' is not an mnm trace file", path.c_str());
    }
    if (std::fread(name_buf, name_field, 1, file) != 1) {
        std::fclose(file);
        fatal("'%s': truncated trace header", path.c_str());
    }
    name_buf[name_field - 1] = '\0';
    name_ = name_buf;

    RawRecord raw;
    for (;;) {
        const std::size_t got = std::fread(&raw, 1, sizeof(raw), file);
        if (got == 0 && std::ferror(file)) {
            std::fclose(file);
            fatal("'%s': read error after record %zu", path.c_str(),
                  trace_.size());
        }
        if (got == 0)
            break;
        if (got != sizeof(raw)) {
            std::fclose(file);
            fatal("'%s': truncated trace record %zu (%zu of %zu bytes)",
                  path.c_str(), trace_.size(), got, sizeof(raw));
        }
        if (raw.dep1 > max_dep_distance || raw.dep2 > max_dep_distance) {
            std::fclose(file);
            fatal("'%s': record %zu has dependence distance %u, beyond "
                  "the look-back horizon %u",
                  path.c_str(), trace_.size(),
                  static_cast<unsigned>(std::max(raw.dep1, raw.dep2)),
                  static_cast<unsigned>(max_dep_distance));
        }
        Instruction inst;
        inst.pc = raw.pc;
        inst.mem_addr = raw.mem_addr;
        inst.dep1 = raw.dep1;
        inst.dep2 = raw.dep2;
        if (raw.cls > static_cast<std::uint8_t>(InstClass::Branch)) {
            std::fclose(file);
            fatal("'%s': corrupt instruction class %u", path.c_str(),
                  raw.cls);
        }
        inst.cls = static_cast<InstClass>(raw.cls);
        inst.exec_latency = raw.exec_latency;
        inst.mispredicted = raw.mispredicted != 0;
        trace_.push_back(inst);
    }
    std::fclose(file);
    if (trace_.empty())
        fatal("'%s': trace contains no records", path.c_str());
}

void
TraceReader::next(Instruction &out)
{
    out = trace_[pos_];
    pos_ = (pos_ + 1) % trace_.size();
}

void
TraceReader::nextBatch(InstructionBatch &batch, std::size_t max)
{
    std::size_t n = std::min(max, InstructionBatch::capacity);
    for (std::size_t i = 0; i < n; ++i) {
        batch.records[i] = trace_[pos_];
        pos_ = (pos_ + 1) % trace_.size();
    }
    batch.size = n;
}

} // namespace mnm
