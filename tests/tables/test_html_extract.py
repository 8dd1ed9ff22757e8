"""Tests for HTML table extraction."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tables.html_extract import extract_tables_from_html
from repro.tables.model import Table

SIMPLE_PAGE = """
<html><body>
<p>A list of physicists and their birthplaces appears below.</p>
<table>
  <tr><th>Name</th><th>Birthplace</th></tr>
  <tr><td>Albert Einstein</td><td>Ulm</td></tr>
  <tr><td>Isaac Newton</td><td>Woolsthorpe</td></tr>
  <tr><td>Marie Curie</td><td>Warsaw</td></tr>
</table>
</body></html>
"""


class TestExtraction:
    def test_basic_extraction(self):
        tables = extract_tables_from_html(SIMPLE_PAGE, screen_relational=False)
        assert len(tables) == 1
        table = tables[0]
        assert table.headers == ["Name", "Birthplace"]
        assert table.n_rows == 3
        assert table.cell(0, 0) == "Albert Einstein"

    def test_context_captured(self):
        tables = extract_tables_from_html(SIMPLE_PAGE, screen_relational=False)
        assert "physicists" in tables[0].context

    def test_source_recorded(self):
        tables = extract_tables_from_html(
            SIMPLE_PAGE, source="http://example.org", screen_relational=False
        )
        assert tables[0].source == "http://example.org"

    def test_relational_screen_applies(self):
        layout = "<table><tr><td>only</td><td></td></tr></table>"
        assert extract_tables_from_html(layout) == []

    def test_merged_cells_discarded(self):
        page = """
        <table>
          <tr><td colspan="2">merged</td></tr>
          <tr><td>a</td><td>b</td></tr>
        </table>
        """
        assert extract_tables_from_html(page, screen_relational=False) == []

    def test_rowspan_discarded(self):
        page = """
        <table>
          <tr><td rowspan="2">x</td><td>b</td></tr>
          <tr><td>c</td><td>d</td></tr>
        </table>
        """
        assert extract_tables_from_html(page, screen_relational=False) == []

    def test_irregular_grid_discarded(self):
        page = """
        <table>
          <tr><td>a</td><td>b</td></tr>
          <tr><td>c</td></tr>
        </table>
        """
        assert extract_tables_from_html(page, screen_relational=False) == []

    def test_outer_of_nested_tables_discarded_inner_kept(self):
        page = """
        <table>
          <tr><td><table><tr><td>inner</td><td>x</td></tr></table></td><td>y</td></tr>
          <tr><td>a</td><td>b</td></tr>
        </table>
        """
        tables = extract_tables_from_html(page, screen_relational=False)
        # the layout shell is dropped; the inner grid survives on its own
        assert len(tables) == 1
        assert tables[0].cells == [["inner", "x"]]

    def test_multiple_tables_numbered(self):
        page = SIMPLE_PAGE + SIMPLE_PAGE.replace("Einstein", "Bohr")
        tables = extract_tables_from_html(
            page, screen_relational=False, id_prefix="page7"
        )
        assert [t.table_id for t in tables] == ["page7:0", "page7:1"]

    def test_headerless_table(self):
        page = """
        <table>
          <tr><td>a</td><td>b</td></tr>
          <tr><td>c</td><td>d</td></tr>
        </table>
        """
        tables = extract_tables_from_html(page, screen_relational=False)
        assert tables[0].headers is None

    def test_entities_unescaped(self):
        page = """
        <table>
          <tr><td>Tom &amp; Jerry</td><td>x</td></tr>
          <tr><td>a</td><td>b</td></tr>
        </table>
        """
        tables = extract_tables_from_html(page, screen_relational=False)
        assert tables[0].cell(0, 0) == "Tom & Jerry"

    def test_malformed_html_does_not_raise(self):
        page = "<table><tr><td>a<td>b</tr><tr><td>c</td><td>d</table>"
        # the stdlib parser is forgiving; just assert no exception
        extract_tables_from_html(page, screen_relational=False)

    def test_empty_page(self):
        assert extract_tables_from_html("") == []
        assert extract_tables_from_html("<p>no tables here</p>") == []


#: markup fragments a messy page is drawn from: balanced and stray table
#: tags, spanning cells, header-only rows, nested tables, character
#: entities (good, unknown and out of range) and broken tags
FRAGMENTS = (
    "<table>",
    "</table>",
    "<tr>",
    "</tr>",
    "<td>",
    "</td>",
    "<th>",
    "</th>",
    "<thead>",
    "</thead>",
    "<tbody>",
    '<td colspan="2">',
    "<td rowspan=3>",
    '<th colspan="1">',
    "<td colspan=''>",
    "<tr><th>Name</th><th>Place</th></tr>",
    "<tr><td>Albert Einstein</td><td>Ulm</td></tr>",
    "<table><tr><td>inner</td></tr></table>",
    "<p>",
    "</div>",
    "<br/>",
    "<!-- note",
    "-->",
    "<script>x < y</script>",
    "&amp;",
    "&lt;td&gt;",
    "&#169;",
    "&#x1F600;",
    "&#99999999;",
    "&nbsp;",
    "&bogus;",
    "&",
    "<",
    ">",
    "<td",
    "Marie Curie",
    " Warsaw ",
    "1867",
    "\n",
)


cell_texts = st.one_of(
    st.sampled_from(("Albert Einstein", "Ulm", "1879", "", "&amp; Co", "&#169;", "x &lt; y")),
    st.text(alphabet="ab &;#1", max_size=6),
)


@st.composite
def table_markup(draw):
    """A table's markup with optional closing tags, spanning cells and
    ``<th>``-only rows, so regular and irregular grids both come out."""
    width = draw(st.integers(1, 3))
    rows = []
    for row in range(draw(st.integers(1, 4))):
        tag = draw(st.sampled_from(("th", "td") if row == 0 else ("td",) * 3 + ("th",)))
        cells = []
        for _ in range(width + draw(st.sampled_from((0,) * 8 + (1, -1)))):
            opening = draw(st.sampled_from((f"<{tag}>",) * 7 + (f'<{tag} colspan="2">',)))
            closing = draw(st.sampled_from((f"</{tag}>",) * 3 + ("",)))
            cells.append(opening + draw(cell_texts) + closing)
        rows.append("<tr>" + "".join(cells) + draw(st.sampled_from(("</tr>",) * 3 + ("",))))
    return "<table>" + "".join(rows) + draw(st.sampled_from(("</table>", "")))


junk = st.one_of(
    st.sampled_from(FRAGMENTS), st.text(alphabet="<>/&;#=\"' abtdhrx0", max_size=8)
)
#: a page of any fragments, or a few around one table
pages = st.one_of(
    st.lists(st.one_of(junk, table_markup()), max_size=30).map("".join),
    st.tuples(
        st.lists(junk, max_size=3).map("".join),
        table_markup(),
        st.lists(junk, max_size=3).map("".join),
    ).map("".join),
)


class TestMessyMarkupFuzz:
    """``extract_tables_from_html`` never raises, whatever the markup, and
    every table it returns is a regular grid that survives the table
    codec."""

    @settings(max_examples=150, deadline=None)
    @given(page=pages, screen=st.booleans())
    def test_messy_markup_yields_regular_tables(self, page, screen):
        for table in extract_tables_from_html(page, screen_relational=screen):
            assert table.n_rows >= 1
            width = len(table.cells[0])
            assert width >= 1
            assert all(len(row) == width for row in table.cells)
            assert table.headers is None or len(table.headers) == width
            payload = json.loads(json.dumps(table.to_dict()))
            assert Table.from_dict(payload).to_dict() == table.to_dict()
