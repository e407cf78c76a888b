"""Unit tests for the contact service (messages, friend requests)."""

import pytest

from repro.osn.errors import ForbiddenError
from repro.osn.messaging import ContactService, FriendRequest, Message


@pytest.fixture()
def service():
    return ContactService()


class TestMessages:
    def test_delivery_lands_in_inbox(self, service):
        service.deliver_message(Message(1, 2, "hi", 2012.25))
        assert service.inbox_size(2) == 1
        assert service.inbox(2)[0].text == "hi"

    def test_self_message_rejected(self, service):
        with pytest.raises(ForbiddenError):
            service.deliver_message(Message(1, 1, "me", 2012.25))

    def test_inbox_is_a_copy(self, service):
        service.deliver_message(Message(1, 2, "hi", 2012.25))
        service.inbox(2).clear()
        assert service.inbox_size(2) == 1

    def test_counter(self, service):
        for i in range(3):
            service.deliver_message(Message(1, 2 + i, "x", 2012.25))
        assert service.messages_delivered == 3

    def test_empty_inbox(self, service):
        assert service.inbox(99) == []
        assert service.inbox_size(99) == 0


class TestFriendRequests:
    def test_request_queued(self, service):
        assert service.add_request(FriendRequest(1, 2, 2012.25))
        assert service.has_pending(2, 1)
        assert len(service.pending_requests(2)) == 1

    def test_duplicate_rejected(self, service):
        service.add_request(FriendRequest(1, 2, 2012.25))
        assert not service.add_request(FriendRequest(1, 2, 2012.30))
        assert service.requests_sent == 1

    def test_self_request_rejected(self, service):
        with pytest.raises(ForbiddenError):
            service.add_request(FriendRequest(1, 1, 2012.25))

    def test_directional(self, service):
        service.add_request(FriendRequest(1, 2, 2012.25))
        assert not service.has_pending(1, 2)  # other direction unaffected
        assert service.add_request(FriendRequest(2, 1, 2012.25))
