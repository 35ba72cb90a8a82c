"""Unit tests for parsed pages: link/form/widget extraction (Figure 3)."""

import pytest

from repro.web.http import Url
from repro.web.page import parse_page


def _page(body: str, url: Url | None = None):
    return parse_page(url or Url("h.com", "/search"), "<html><head><title>T</title></head><body>%s</body></html>" % body)


class TestLinks:
    def test_links_resolve_relative(self):
        page = _page('<a href="detail?ad=1">Car Features</a>')
        assert str(page.links[0].address) == "http://h.com/detail?ad=1"

    def test_link_named_is_case_insensitive(self):
        page = _page('<a href="/m">More</a>')
        assert page.link_named("more").address.path == "/m"

    def test_link_named_missing_raises(self):
        page = _page("")
        with pytest.raises(KeyError):
            page.link_named("nope")

    def test_has_link_named(self):
        page = _page('<a href="/m">More</a>')
        assert page.has_link_named("More")
        assert not page.has_link_named("Less")

    def test_hrefless_anchor_ignored(self):
        page = _page("<a>just text</a>")
        assert page.links == []


FORM = """
<form action="/cgi-bin/find" method="post">
  <p><b>Make: </b><select name="make"><option>ford</option><option>honda</option></select></p>
  <p><b>Model: </b><input type="text" name="model" maxlength="12"></p>
  <p><b>Condition: </b>
     <input type="radio" name="cond" value="good" checked>
     <input type="radio" name="cond" value="fair"></p>
  <input type="checkbox" name="pics" value="yes">
  <input type="hidden" name="session" value="abc">
  <input type="submit" value="Go">
</form>
"""


class TestForms:
    def test_action_and_method(self):
        form = _page(FORM).forms[0]
        assert form.action.path == "/cgi-bin/find"
        assert form.method == "POST"

    def test_select_widget_domain(self):
        widget = _page(FORM).forms[0].widget("make")
        assert widget.kind == "select"
        assert widget.domain == ("ford", "honda")

    def test_text_widget_maxlength(self):
        widget = _page(FORM).forms[0].widget("model")
        assert widget.kind == "text"
        assert widget.max_length == 12

    def test_radio_widget_is_mandatory_with_domain_and_default(self):
        widget = _page(FORM).forms[0].widget("cond")
        assert widget.kind == "radio"
        assert widget.mandatory
        assert widget.domain == ("good", "fair")
        assert widget.default == "good"

    def test_checkbox_widget(self):
        widget = _page(FORM).forms[0].widget("pics")
        assert widget.kind == "checkbox"
        assert widget.domain == ("yes",)

    def test_hidden_state(self):
        form = _page(FORM).forms[0]
        assert form.hidden_state == {"session": "abc"}

    def test_attribute_names_exclude_hidden(self):
        form = _page(FORM).forms[0]
        assert set(form.attribute_names) == {"make", "model", "cond", "pics"}

    def test_widget_labels(self):
        form = _page(FORM).forms[0]
        assert form.widget("make").label == "Make"
        assert form.widget("model").label == "Model"

    def test_submit_buttons_are_not_widgets(self):
        form = _page(FORM).forms[0]
        with pytest.raises(KeyError):
            form.widget("Go")

    def test_form_with_attribute(self):
        page = _page(FORM)
        assert page.form_with_attribute("model") is page.forms[0]
        with pytest.raises(KeyError):
            page.form_with_attribute("nope")

    @pytest.mark.parametrize("empty", ['=""', "=''", "="])
    def test_an_empty_boolean_attribute_still_sets_the_default(self, empty):
        """HTML boolean attributes count by presence: ``checked=""`` checks
        a radio button or a checkbox and ``selected=""`` selects an option,
        exactly as the bare ``checked`` / ``selected`` do."""
        form = _page(
            '<form action="/f">'
            '<input type="radio" name="cond" value="good">'
            '<input type="radio" name="cond" value="fair" checked%s>'
            '<input type="checkbox" name="pics" value="yes" checked%s>'
            '<select name="make"><option>ford<option selected%s>honda</select>'
            "</form>" % (empty, empty, empty)
        ).forms[0]
        assert form.widget("cond").default == "fair"
        assert form.widget("pics").default == "yes"
        assert form.widget("make").default == "honda"


class TestFill:
    def test_fill_includes_hidden_state_and_defaults(self):
        form = _page(FORM).forms[0]
        params = form.fill({"make": "ford"})
        assert params["session"] == "abc"
        assert params["cond"] == "good"  # checked default
        assert params["make"] == "ford"

    def test_fill_rejects_out_of_domain(self):
        form = _page(FORM).forms[0]
        with pytest.raises(ValueError):
            form.fill({"make": "tesla"})

    def test_fill_rejects_unknown_widget(self):
        form = _page(FORM).forms[0]
        with pytest.raises(ValueError):
            form.fill({"bogus": "1"})

    def test_fill_radio_choice(self):
        form = _page(FORM).forms[0]
        assert form.fill({"cond": "fair"})["cond"] == "fair"


class TestTables:
    def test_tables_extraction(self):
        page = _page(
            "<table><tr><th>A</th><th>B</th></tr><tr><td>1</td><td>2</td></tr></table>"
        )
        assert page.tables() == [[["A", "B"], ["1", "2"]]]

    def test_title(self):
        assert _page("").title == "T"


class TestIdentity:
    def test_two_parses_of_one_body_compare_unequal_without_recursing(self):
        """A page and its DOM nodes compare by identity: comparing two
        parses of one body used to recurse through every node's ``parent``
        until the interpreter's stack ran out."""
        first, second = _page(FORM), _page(FORM)
        assert first == first and first != second
        assert first.dom.find("form") != second.dom.find("form")
        assert len({first, second, first}) == 2  # hashable, by identity

