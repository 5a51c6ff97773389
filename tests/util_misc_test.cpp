// Tables, CSV, histogram, CLI and timer tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace cspls::util {
namespace {

// ---------------------------------------------------------------- Table ---

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"}, {Align::kLeft, Align::kRight});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render("title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Right-aligned numbers end in the same column.
  std::istringstream is(out);
  std::string line, header, sep, row1, row2;
  std::getline(is, line);  // title
  std::getline(is, header);
  std::getline(is, sep);
  std::getline(is, row1);
  std::getline(is, row2);
  EXPECT_EQ(row1.size(), row2.size());
  EXPECT_EQ(sep.find_first_not_of('-'), std::string::npos);
}

TEST(Table, DefaultAlignmentFirstColumnLeft) {
  Table t({"a", "b"});
  t.add_row({"xx", "1"});
  t.add_row({"y", "22"});
  EXPECT_EQ(t.render(), "a    b\n------\nxx   1\ny   22\n");
}

TEST(Table, ThrowsOnRowWidthMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, ThrowsOnAlignSizeMismatch) {
  EXPECT_THROW(Table({"a", "b"}, {Align::kLeft}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::sig(1234.5, 3), "1.23e+03");
  EXPECT_EQ(Table::sig(0.5, 2), "0.5");
}

// ------------------------------------------------------------------ CSV ---

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRowsToFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "cspls_csv_test.csv").string();
  {
    CsvWriter csv(path);
    csv.write_all({"x", "y"}, {{"1", "2"}, {"3", "4,5"}});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"4,5\"");
  std::filesystem::remove(path);
}

TEST(Csv, ThrowsOnUnwritablePath) {
  // /proc rejects directory creation, so the writer cannot recover by
  // creating the parent (which it legitimately does for normal paths).
  EXPECT_THROW(CsvWriter("/proc/cspls-nonexistent/file.csv"),
               std::runtime_error);
}

TEST(Csv, CreatesMissingParentDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "cspls_csv_dir";
  std::filesystem::remove_all(dir);
  const auto path = (dir / "nested" / "out.csv").string();
  {
    CsvWriter csv(path);
    csv.write_row({"a"});
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ Histogram ---

TEST(Histogram, CountsFallIntoBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  h.add(9.99);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(9), 1u);
}

TEST(Histogram, ClampsOutOfRangeValues) {
  Histogram h(0.0, 1.0, 4);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, FromDataAutoRange) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const Histogram h = Histogram::from_data(xs, 5);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.lo(), 1.0);
  EXPECT_DOUBLE_EQ(h.hi(), 5.0);
}

TEST(Histogram, BinRangeIsConsistent) {
  Histogram h(0.0, 10.0, 5);
  const auto [lo, hi] = h.bin_range(1);
  EXPECT_DOUBLE_EQ(lo, 2.0);
  EXPECT_DOUBLE_EQ(hi, 4.0);
}

TEST(Histogram, RenderProducesOneLinePerBin) {
  Histogram h(0.0, 1.0, 3);
  h.add(0.1);
  const std::string out = h.render(20);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_NE(out.find('#'), std::string::npos);
}

TEST(Histogram, DegenerateRange) {
  Histogram h(5.0, 5.0, 3);  // hi == lo: widened internally
  h.add(5.0);
  EXPECT_EQ(h.total(), 1u);
}

// -------------------------------------------------------------- Arg CLI ---

TEST(ArgParser, DefaultsSurviveEmptyArgv) {
  ArgParser p("prog", "desc");
  p.add_int("cores", 8, "core count");
  p.add_string("name", "costas", "benchmark");
  p.add_flag("verbose", "chatty");
  const char* argv[] = {"prog"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("cores"), 8);
  EXPECT_EQ(p.get_string("name"), "costas");
  EXPECT_FALSE(p.flag("verbose"));
}

TEST(ArgParser, ParsesSpaceAndEqualsForms) {
  ArgParser p("prog", "desc");
  p.add_int("cores", 8, "core count");
  p.add_string("name", "x", "benchmark");
  p.add_flag("verbose", "chatty");
  const char* argv[] = {"prog", "--cores", "32", "--name=magic", "--verbose"};
  EXPECT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.get_int("cores"), 32);
  EXPECT_EQ(p.get_string("name"), "magic");
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser p("prog", "desc");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_FALSE(p.error().empty());
}

TEST(ArgParser, RejectsBadValue) {
  ArgParser p("prog", "desc");
  p.add_int("n", 1, "int");
  const char* argv[] = {"prog", "--n", "twelve"};
  EXPECT_FALSE(p.parse(3, argv));
}

TEST(ArgParser, RejectsMissingValue) {
  ArgParser p("prog", "desc");
  p.add_int("n", 1, "int");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, HelpShortCircuits) {
  ArgParser p("prog", "desc");
  p.add_int("n", 1, "int");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_TRUE(p.help_requested());
  EXPECT_NE(p.usage().find("--n"), std::string::npos);
}

TEST(ArgParser, ThrowsOnUndeclaredLookup) {
  ArgParser p("prog", "desc");
  EXPECT_THROW((void)p.get_int("ghost"), std::logic_error);
}

// ------------------------------------------------------ Timer & logging ---

TEST(Timer, MeasuresElapsedTime) {
  Stopwatch w;
  // Just sanity: non-negative and monotone.
  const double a = w.elapsed_seconds();
  const double b = w.elapsed_seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  w.reset();
  EXPECT_GE(w.elapsed_seconds(), 0.0);
}

TEST(Timer, FormatDuration) {
  EXPECT_EQ(format_duration(0.5), "500ms");
  EXPECT_EQ(format_duration(2.345), "2.35s");
  EXPECT_EQ(format_duration(192.0), "3m12s");
}

}  // namespace
}  // namespace cspls::util
