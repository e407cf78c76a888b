"""Round-trip tests for HTML render/parse pairs, including hypothesis."""

import html
import re
from typing import List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osn import pages
from repro.osn.errors import ParseError
from repro.osn.network import DirectoryEntry, School
from repro.osn.pages import (
    ListingPage,
    parse_friends_page,
    parse_profile_page,
    parse_school_page,
    parse_search_page,
    render_friends_page,
    render_profile_page,
    render_school_page,
    render_search_page,
)
from repro.osn.profile import Gender, SchoolAffiliation
from repro.osn.view import ProfileView, WallPostView

# Text that stresses HTML escaping but stays printable.
tricky_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N", "P", "S", "Zs"),
        blacklist_characters="\r\n",
    ),
    min_size=1,
    max_size=30,
)


def make_view(**overrides) -> ProfileView:
    base = dict(
        user_id=42,
        name="Jane O'Neil <3 & co",
        gender=Gender.FEMALE,
        networks=("Net & One",),
        has_profile_photo=True,
        high_schools=(SchoolAffiliation(7, 'St. "Mary" & Sons', 2014),),
        relationship_status="Single",
        interested_in="Men",
        birthday_year=1994,
        hometown="Spring<field>",
        current_city="East & West",
        employer="Acme & Co",
        graduate_school="State U",
        photo_count=12,
        wall_post_count=3,
        contact_email="a&b@example.com",
        contact_phone="555-0100",
        friend_list_visible=True,
        message_button=True,
        public_search_listed=True,
    )
    base.update(overrides)
    return ProfileView(**base)


class TestProfileRoundTrip:
    def test_full_profile_round_trips(self):
        view = make_view()
        assert parse_profile_page(render_profile_page(view)) == view

    def test_minimal_profile_round_trips(self):
        view = ProfileView(user_id=9, name="Min Imal")
        parsed = parse_profile_page(render_profile_page(view))
        assert parsed == view
        assert parsed.is_minimal()

    def test_school_without_year_round_trips(self):
        view = make_view(
            high_schools=(SchoolAffiliation(3, "No Year High", None),)
        )
        parsed = parse_profile_page(render_profile_page(view))
        assert parsed.high_schools[0].graduation_year is None

    def test_multiple_schools_preserved_in_order(self):
        view = make_view(
            high_schools=(
                SchoolAffiliation(1, "First High", 2010),
                SchoolAffiliation(2, "Second High", 2014),
            )
        )
        parsed = parse_profile_page(render_profile_page(view))
        assert [a.school_id for a in parsed.high_schools] == [1, 2]

    def test_garbage_page_raises_parse_error(self):
        with pytest.raises(ParseError):
            parse_profile_page("<html><body>nothing here</body></html>")

    @given(name=tricky_text, hometown=tricky_text, school=tricky_text)
    @settings(max_examples=80)
    def test_escaping_fuzz(self, name, hometown, school):
        view = make_view(
            name=name,
            hometown=hometown,
            high_schools=(SchoolAffiliation(5, school, 2013),),
        )
        parsed = parse_profile_page(render_profile_page(view))
        assert parsed.name == name
        assert parsed.hometown == hometown
        assert parsed.high_schools[0].school_name == school

    @given(
        photo=st.booleans(),
        friends=st.booleans(),
        message=st.booleans(),
        search=st.booleans(),
    )
    @settings(max_examples=32)
    def test_flag_combinations(self, photo, friends, message, search):
        view = make_view(
            has_profile_photo=photo,
            friend_list_visible=friends,
            message_button=message,
            public_search_listed=search,
        )
        parsed = parse_profile_page(render_profile_page(view))
        assert parsed.has_profile_photo == photo
        assert parsed.friend_list_visible == friends
        assert parsed.message_button == message
        assert parsed.public_search_listed == search


# ----------------------------------------------------------------------
# The one-pass profile parser against the multi-regex parser it replaced
# ----------------------------------------------------------------------


def reference_parse_profile_page(page: str) -> ProfileView:
    """The profile parser before the one-pass scan: one regex search per
    element, each from the top of the page.  Kept as the exact reference."""

    def find(pattern: str) -> Optional[re.Match]:
        return re.search(pattern, page, re.DOTALL)

    def require(pattern: str, what: str) -> re.Match:
        match = find(pattern)
        if match is None:
            raise ParseError(f"could not locate {what} in page")
        return match

    uid_match = require(r'<div id="profile" data-uid="(\d+)">', "profile div")
    user_id = int(uid_match.group(1))
    name = html.unescape(require(r'<h1 class="name">(.*?)</h1>', "name").group(1))

    gender_match = find(r'<span class="gender">(.*?)</span>')
    gender = Gender(html.unescape(gender_match.group(1))) if gender_match else None

    networks = tuple(
        html.unescape(m)
        for m in re.findall(r'<span class="network">(.*?)</span>', page, re.DOTALL)
    )

    schools: List[SchoolAffiliation] = []
    for sid, year, sname in re.findall(
        r'<li class="school" data-school-id="(\d+)" data-year="(\d*)">(.*?)</li>',
        page,
        re.DOTALL,
    ):
        schools.append(
            SchoolAffiliation(
                school_id=int(sid),
                school_name=html.unescape(sname),
                graduation_year=int(year) if year else None,
            )
        )

    def span(cls: str) -> Optional[str]:
        match = find(rf'<span class="{cls}">(.*?)</span>')
        return html.unescape(match.group(1)) if match else None

    def int_span(cls: str) -> Optional[int]:
        value = span(cls)
        return int(value) if value is not None else None

    wall_posts = tuple(
        WallPostView(int(author), html.unescape(text))
        for author, text in re.findall(
            r'<li class="wall-post" data-author="(\d+)">(.*?)</li>', page, re.DOTALL
        )
    )

    return ProfileView(
        user_id=user_id,
        name=name,
        gender=gender,
        networks=networks,
        has_profile_photo='class="profile-photo"' in page,
        high_schools=tuple(schools),
        relationship_status=span("relationship"),
        interested_in=span("interested-in"),
        birthday_year=int_span("birthday-year"),
        hometown=span("hometown"),
        current_city=span("current-city"),
        employer=span("employer"),
        graduate_school=span("graduate-school"),
        photo_count=int_span("photo-count"),
        wall_post_count=int_span("wall-count"),
        wall_posts=wall_posts,
        contact_email=span("contact-email"),
        contact_phone=span("contact-phone"),
        friend_list_visible='class="friends-link"' in page,
        message_button='class="message-link"' in page,
        public_search_listed='class="public-search"' in page,
    )


#: Like ``tricky_text``, but may be empty and may hold line breaks.
any_text = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "S", "Zs", "Cc")),
    max_size=25,
)
maybe_text = st.none() | any_text
maybe_count = st.none() | st.integers(0, 5_000)

views_strategy = st.builds(
    ProfileView,
    user_id=st.integers(0, 10**9),
    name=any_text,
    gender=st.none() | st.sampled_from(Gender),
    networks=st.lists(any_text, max_size=3).map(tuple),
    has_profile_photo=st.booleans(),
    high_schools=st.lists(
        st.builds(
            SchoolAffiliation,
            school_id=st.integers(0, 10**6),
            school_name=any_text,
            graduation_year=st.none() | st.integers(1900, 2100),
        ),
        max_size=4,
    ).map(tuple),
    relationship_status=maybe_text,
    interested_in=maybe_text,
    birthday_year=maybe_count,
    hometown=maybe_text,
    current_city=maybe_text,
    employer=maybe_text,
    graduate_school=maybe_text,
    photo_count=maybe_count,
    wall_post_count=maybe_count,
    wall_posts=st.lists(
        st.builds(WallPostView, author_id=st.integers(0, 10**9), text=any_text),
        max_size=4,
    ).map(tuple),
    contact_email=maybe_text,
    contact_phone=maybe_text,
    friend_list_visible=st.booleans(),
    message_button=st.booleans(),
    public_search_listed=st.booleans(),
)


class TestOnePassProfileParser:
    @given(view=views_strategy)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_on_random_views(self, view):
        page = render_profile_page(view)
        parsed = parse_profile_page(page)
        assert parsed == reference_parse_profile_page(page)
        assert parsed == view

    def test_page_without_profile_div_raises(self):
        page = render_profile_page(make_view()).replace('id="profile"', 'id="other"')
        for parse in (parse_profile_page, reference_parse_profile_page):
            with pytest.raises(ParseError, match="profile div"):
                parse(page)

    def test_page_without_name_raises(self):
        page = render_profile_page(make_view()).replace('class="name"', 'class="title"')
        for parse in (parse_profile_page, reference_parse_profile_page):
            with pytest.raises(ParseError, match="name"):
                parse(page)

    def test_listing_page_is_not_a_profile(self):
        page = render_friends_page(1, 1, 0, [DirectoryEntry(2, "Pat")])
        with pytest.raises(ParseError):
            parse_profile_page(page)


class TestEscapeGuards:
    """The renderer escapes only values holding one of ``& < > " '``,
    and the parser unescapes only pages holding an ``&``: pages and
    parsed views are what escaping and unescaping every value give."""

    #: ``make_view`` with every value free of the five characters.
    CLEAN = dict(
        name="Jane Oneil",
        networks=("Net One",),
        high_schools=(SchoolAffiliation(7, "St Mary High", 2014),),
        hometown="Springfield",
        current_city="East End",
        employer="Acme Co",
        contact_email="ab@example.com",
        wall_posts=(WallPostView(5, "see you"),),
    )

    @pytest.mark.parametrize(
        "where",
        [
            {"wall_posts": (WallPostView(5, "see you"), WallPostView(6, "salt & pepper"))},
            {"high_schools": (SchoolAffiliation(7, "Mary & Joseph High", 2014),)},
            {"networks": ("Net One", "Acme & Sons")},
        ],
        ids=["wall-post", "school-name", "network"],
    )
    def test_a_pages_only_ampersand_is_unescaped(self, where):
        view = make_view(**{**self.CLEAN, **where})
        page = render_profile_page(view)
        assert page.count("&") == 1 and "&amp;" in page
        assert parse_profile_page(page) == reference_parse_profile_page(page) == view

    def test_a_page_without_an_ampersand(self):
        view = make_view(**self.CLEAN)
        page = render_profile_page(view)
        assert "&" not in page
        assert parse_profile_page(page) == reference_parse_profile_page(page) == view

    @given(view=views_strategy)
    @settings(max_examples=200, deadline=None)
    def test_pages_are_what_escaping_every_value_gives(self, view):
        guarded = render_profile_page(view)
        with mock.patch.object(pages, "_needs_escape", lambda value: True):
            assert render_profile_page(view) == guarded

    def test_an_unknown_gender_still_raises(self):
        page = render_profile_page(make_view(gender=Gender.MALE))
        assert parse_profile_page(page).gender is Gender.MALE
        with pytest.raises(ValueError):
            parse_profile_page(page.replace(">male<", ">robot<"))


class TestDirectoryEntry:
    """The row type's contract: the frozen dataclass's repr and hash."""

    def test_repr(self):
        assert repr(DirectoryEntry(5, "Emma")) == "DirectoryEntry(user_id=5, name='Emma')"
        assert repr(DirectoryEntry(7, "O'Neil")) == 'DirectoryEntry(user_id=7, name="O\'Neil")'

    def test_hash_is_the_hash_of_its_fields(self):
        assert hash(DirectoryEntry(5, "Emma")) == hash((5, "Emma"))
        assert len({DirectoryEntry(5, "Emma"), DirectoryEntry(5, "Emma")}) == 1

    def test_equality_is_by_fields(self):
        assert DirectoryEntry(5, "Emma") == DirectoryEntry(user_id=5, name="Emma")
        assert DirectoryEntry(5, "Emma") != DirectoryEntry(6, "Emma")
        assert DirectoryEntry(5, "Emma") != DirectoryEntry(5, "Emmy")

    def test_is_immutable(self):
        entry = DirectoryEntry(5, "Emma")
        with pytest.raises(AttributeError):
            entry.name = "Eve"  # type: ignore[misc]
        with pytest.raises(AttributeError):
            entry.user_id = 6  # type: ignore[misc]
        assert entry == DirectoryEntry(5, "Emma")


class TestListingPage:
    """The parsed listing's contract: the frozen dataclass's repr, field
    equality, hash and immutability, and ``next_offset`` a property."""

    ENTRIES = (DirectoryEntry(5, "Emma"), DirectoryEntry(7, "O'Neil"))

    def test_repr(self):
        assert repr(ListingPage(42, 20, self.ENTRIES)) == (
            "ListingPage(total=42, offset=20, entries=(DirectoryEntry(user_id=5, "
            "name='Emma'), DirectoryEntry(user_id=7, name=\"O'Neil\")))"
        )

    def test_equality_is_by_fields(self):
        page = ListingPage(42, 20, self.ENTRIES)
        assert page == ListingPage(total=42, offset=20, entries=self.ENTRIES)
        assert page != ListingPage(43, 20, self.ENTRIES)
        assert page != ListingPage(42, 0, self.ENTRIES)
        assert page != ListingPage(42, 20, self.ENTRIES[:1])

    def test_hash_is_the_hash_of_its_fields(self):
        assert hash(ListingPage(42, 20, self.ENTRIES)) == hash((42, 20, self.ENTRIES))
        assert len({ListingPage(1, 0, ()), ListingPage(1, 0, ())}) == 1

    def test_is_immutable(self):
        page = ListingPage(42, 20, self.ENTRIES)
        with pytest.raises(AttributeError):
            page.total = 0  # type: ignore[misc]
        with pytest.raises(AttributeError):
            page.next_offset = 0  # type: ignore[misc]
        assert page == ListingPage(42, 20, self.ENTRIES)

    def test_next_offset_is_a_property(self):
        assert isinstance(ListingPage.next_offset, property)
        assert ListingPage(42, 20, self.ENTRIES).next_offset == 22
        assert ListingPage(22, 20, self.ENTRIES).next_offset is None


entries_strategy = st.lists(
    st.tuples(st.integers(1, 10_000), tricky_text), max_size=20, unique_by=lambda t: t[0]
).map(lambda pairs: [DirectoryEntry(uid, name) for uid, name in pairs])


class TestListingRoundTrips:
    def test_friends_page_round_trips(self):
        entries = [DirectoryEntry(1, "A & B"), DirectoryEntry(2, "C <D>")]
        page = render_friends_page(99, 42, 20, entries)
        parsed = parse_friends_page(page)
        assert parsed == ListingPage(total=42, offset=20, entries=tuple(entries))

    def test_next_offset_advances(self):
        entries = [DirectoryEntry(i, f"U{i}") for i in range(20)]
        parsed = parse_friends_page(render_friends_page(1, 50, 0, entries))
        assert parsed.next_offset == 20

    def test_next_offset_none_at_end(self):
        entries = [DirectoryEntry(i, f"U{i}") for i in range(10)]
        parsed = parse_friends_page(render_friends_page(1, 10, 0, entries))
        assert parsed.next_offset is None

    def test_search_page_round_trips(self):
        entries = [DirectoryEntry(5, "Emma")]
        parsed = parse_search_page(render_search_page(1, 0, entries))
        assert parsed.entries == tuple(entries)

    def test_friend_parser_rejects_search_page(self):
        page = render_search_page(1, 0, [DirectoryEntry(5, "Emma")])
        with pytest.raises(ParseError):
            parse_friends_page(page)

    @given(entries=entries_strategy, total_extra=st.integers(0, 100))
    @settings(max_examples=60)
    def test_listing_fuzz(self, entries, total_extra):
        total = len(entries) + total_extra
        parsed = parse_search_page(render_search_page(total, 0, entries))
        assert list(parsed.entries) == entries
        assert parsed.total == total


def reference_render_listing(kind, title, total, offset, entries):
    """A listing page as written out by hand: ``html.escape`` on each
    row's name.  The exact reference for the page's bytes."""
    rows = "".join(
        f'<li class="user-row" data-uid="{e.user_id}">'
        f'<a href="/profile/{e.user_id}">{html.escape(str(e.name), quote=True)}</a></li>'
        for e in entries
    )
    return (
        f"<html><head><title>{html.escape(title, quote=True)} | FaceSpace</title></head>"
        f'<body><div class="{kind}" data-total="{total}" data-offset="{offset}">'
        f"<ul>{rows}</ul></div></body></html>"
    )


def reference_parse_rows(page):
    """Listing rows as they were parsed before rows were built at C
    level: ``html.unescape`` on each row's name, one ``DirectoryEntry``
    call per row.  Kept as the exact reference."""
    return tuple(
        DirectoryEntry(int(uid), html.unescape(name))
        for uid, name in re.findall(
            r'<li class="user-row" data-uid="(\d+)"><a href="/profile/\d+">([^<]*)</a></li>',
            page,
        )
    )


#: Names for the listing rows, line breaks and every escaped character
#: included.
row_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N", "P", "S", "Zs"))
    | st.sampled_from("&<>\"'\n;#"),
    max_size=20,
)


class TestListingRows:
    """Listing pages build their rows at C level; every page and every
    parsed row is what the per-row references make, byte for byte."""

    def check(self, names):
        entries = [DirectoryEntry(100 + i, name) for i, name in enumerate(names)]
        friends = render_friends_page(7, len(entries) + 3, 20, entries)
        assert friends == reference_render_listing(
            "friend-list", "Friends of user 7", len(entries) + 3, 20, entries
        )
        search = render_search_page(len(entries), 0, entries)
        assert search == reference_render_listing(
            "search-results", "People search", len(entries), 0, entries
        )
        for page, parse in ((friends, parse_friends_page), (search, parse_search_page)):
            parsed = parse(page).entries
            assert parsed == reference_parse_rows(page) == tuple(entries)
            assert all(type(entry) is DirectoryEntry for entry in parsed)
            assert [type(entry.user_id) for entry in parsed] == [int] * len(parsed)
        return friends

    def test_every_escaped_character(self):
        page = self.check(["A & B", "<C>", 'Dee "D" Dee', "O'Neil", "&amp; &lt;", "plain"])
        assert "&amp;amp;" in page and "&#x27;" in page

    def test_a_name_holding_a_line_break(self):
        page = self.check(["Line\nBreak & Co", "Two\n\nLines", "Ann Lee"])
        assert "Line\nBreak &amp; Co" in page

    def test_an_empty_page(self):
        page = self.check([])
        assert "<ul></ul>" in page

    def test_clean_names_between_escaped_ones(self):
        """Each escaped character alone, at either end of a name, between
        clean names: the guard must send every such name to the escape
        and every other name through untouched."""
        names = ["Ann Lee"]
        for char in "&<>\"'":
            names += [f"Bo{char}Chen", "Cy Dunn", f"{char}Eve", f"Flo{char}", "Gus Hale"]
        page = self.check(names)
        for char, escaped in zip("&<>\"'", ("&amp;", "&lt;", "&gt;", "&quot;", "&#x27;")):
            assert f"Bo{escaped}Chen</a>" in page
            assert f">{escaped}Eve</a>" in page
            assert f">Flo{escaped}</a>" in page
        assert page.count(">Cy Dunn</a>") == 5

    def test_a_page_without_an_ampersand(self):
        page = self.check(["Emma Stone", "Noah Park", ""])
        assert "&" not in page

    @given(names=st.lists(row_names, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_random_names(self, names):
        self.check(names)


class TestSchoolPage:
    def test_round_trips(self):
        school = School(3, 'Jo & "Flo" High', "East <Side>", 1500)
        assert parse_school_page(render_school_page(school)) == school

    def test_missing_enrollment_hint(self):
        school = School(3, "Hintless High", "Nowhere", None)
        parsed = parse_school_page(render_school_page(school))
        assert parsed.enrollment_hint is None
