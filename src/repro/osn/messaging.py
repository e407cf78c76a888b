"""Messaging and friend requests: the OSN's contact surfaces.

Section 2 of the paper assumes the third party "has a means to send
messages directly to many of the students, and can send friend requests
to all of the students".  This module supplies both surfaces with the
policy enforced:

* a message can be sent only when the sender sees the recipient's
  "Message" button (never the case for a stranger messaging a
  registered minor on Facebook);
* a friend request can be sent to anyone, and stays pending: nothing
  in the threat model accepts one — the attack in this reproduction
  stays passive and merely *counts* reachability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .errors import ForbiddenError, NotFoundError


@dataclass(frozen=True)
class Message:
    """One delivered direct message."""

    sender_id: int
    recipient_id: int
    text: str
    sent_at_year: float


@dataclass(frozen=True)
class FriendRequest:
    """A pending friend request."""

    sender_id: int
    recipient_id: int
    sent_at_year: float


class ContactService:
    """Inboxes and friend-request queues, policy-checked by the network.

    The :class:`~repro.osn.network.SocialNetwork` owns an instance and
    performs the policy check before calling :meth:`deliver_message`;
    this class only stores state and enforces structural rules
    (no self-messaging, no duplicate pending requests).
    """

    def __init__(self) -> None:
        self._inboxes: Dict[int, List[Message]] = {}
        self._pending: Dict[int, List[FriendRequest]] = {}
        self._sent_requests: Set[Tuple[int, int]] = set()
        self.messages_delivered = 0
        self.requests_sent = 0

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def deliver_message(self, message: Message) -> None:
        if message.sender_id == message.recipient_id:
            raise ForbiddenError("cannot message yourself")
        self._inboxes.setdefault(message.recipient_id, []).append(message)
        self.messages_delivered += 1

    def inbox(self, user_id: int) -> List[Message]:
        return list(self._inboxes.get(user_id, []))

    def inbox_size(self, user_id: int) -> int:
        return len(self._inboxes.get(user_id, []))

    # ------------------------------------------------------------------
    # Friend requests
    # ------------------------------------------------------------------
    def add_request(self, request: FriendRequest) -> bool:
        """Queue a request; returns False if one is already pending."""
        if request.sender_id == request.recipient_id:
            raise ForbiddenError("cannot friend-request yourself")
        key = (request.sender_id, request.recipient_id)
        if key in self._sent_requests:
            return False
        self._sent_requests.add(key)
        self._pending.setdefault(request.recipient_id, []).append(request)
        self.requests_sent += 1
        return True

    def pending_requests(self, user_id: int) -> List[FriendRequest]:
        return list(self._pending.get(user_id, []))

    def has_pending(self, recipient_id: int, sender_id: int) -> bool:
        return any(
            r.sender_id == sender_id for r in self._pending.get(recipient_id, [])
        )
